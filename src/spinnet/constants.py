"""Physical constants and limits shared across the package.

All Hamiltonians and rates are expressed in MHz, times in microseconds and
distances in nanometres.  Frequencies are plain (not angular): the factor
of 2*pi enters exactly once, in the cluster propagator
exp(-i * TWO_PI * H * t), via :data:`TWO_PI`.  The rate layer applies its
golden-rule rates R (MHz, from plain J~, Gamma and Delta) per microsecond
with none, so a dressed pair with coherence decay 2*pi*Gamma per
microsecond transfers at 2*pi*R (``spinnet.transport.build_rates``).  This
module imports only :mod:`math`, so the command-line front validates
configs against these limits without loading numpy.
"""

import math

# Dipolar coupling constant mu0 * gamma_e^2 * hbar / (4 pi), in MHz * nm^3.
J0_MHZ_NM3 = 52.0

# Electron gyromagnetic ratio, MHz per gauss.
GAMMA_E_MHZ_PER_G = 2.8024

# SI constants (CODATA 2018), used only for spin-temperature conversions.
H_PLANCK_J_S = 6.62607015e-34
K_B_J_PER_K = 1.380649e-23

# The single owner of the 2*pi convention: propagators are exp(-i*TWO_PI*H*t)
# for H in MHz and t in us.
TWO_PI = 2.0 * math.pi

# Number density per ppm of substitutional defects in diamond,
# 8 atoms per cubic cell of side A_DIAMOND_NM: 1e-6 * 8 / a^3 = 1.76e-4.
A_DIAMOND_NM = 0.3567
PPM_TO_PER_NM3 = 1.76e-4

# The hard-core exclusion radius, nm, of every network and cluster the
# runners build.
EXCLUSION_NM = 1.0

# At the cap one dense complex Hamiltonian is 4096^2 * 16 B = 256 MiB, and
# eigh adds its eigenvectors and workspace of the same order.  The builders
# form no per-site operator set (7 n 4^n * 16 B, 21 GiB at 12 spins); their
# per-size pair tables take 24 B per pair and basis state, 6.5 MB at 12 spins.
MAX_CLUSTER_DIM = 4096

# The variables that set the BLAS thread count.  The command-line front
# sets each to 1 before numpy loads, and the run manifests record the
# values the caller gave.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Memory one realization may take: the schema's size caps keep every
# realization below it, so a run needs (workers + 1) times this.  The
# command-line front lets the heap keep this much free memory for the
# next realization.
REALIZATION_BYTES = 1 << 30


def ppm_to_density(concentration_ppm: float) -> float:
    """Defect concentration in ppm to number density in nm^-3."""
    if concentration_ppm < 0:
        raise ValueError(f"concentration must be nonnegative, got {concentration_ppm}")
    return concentration_ppm * PPM_TO_PER_NM3
