"""The run settings the tests pass to the physics modules, read where the
commands read them: the schema's defaults, as :func:`spinnet.cli.resolve_config`
fills them in.  The physics modules keep no copy of these defaults."""

from spinnet import cli, experiments


def resolved(experiment: str, **fields) -> dict:
    """The resolved ``experiment`` config with ``fields`` at its top level."""
    return cli.resolve_config({"experiment": experiment, **fields})


def setting(experiment: str, path: str):
    """The default at ``path`` (e.g. ``params/n_bath``) of the resolved ``experiment`` config."""
    value = resolved(experiment)
    for key in path.split("/"):
        value = value[key]
    return value


def cycle(**params):
    """The CycleConfig that ``protocol`` runs, with ``params`` (e.g. ``omega_mhz``) changed."""
    p = resolved("protocol", params=params)["params"]
    return experiments._protocol_config(p, p["omega_mhz"])


def protocol_factory(seed: int, **params):
    """The network factory that ``protocol`` runs at ``seed``, with ``params`` (e.g. ``n_p1``) changed."""
    return experiments._protocol_factory(resolved("protocol", seed=seed, params=params))


def deer_trace(density_ppm: float, realizations: int, seed: int, **params):
    """The trace that ``deer`` runs at bath density ``density_ppm``, with ``params`` (e.g. ``n_bath``) changed."""
    network = {"densities_ppm": {"P1": density_ppm}}
    config = resolved("deer", seed=seed, realizations=realizations, params=params, network=network)
    return experiments._echo_trace(config, config["params"]["bath_pi"])[1]
