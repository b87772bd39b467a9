"""Sparse multidimensional harmonic retrieval at desk scale.

Building blocks: complex128 arrays and products (:mod:`hunfold.cplx`),
Toeplitz generators and FFT convolution on numpy.fft (:mod:`hunfold.spectral`),
partial Fourier sensing models and synthetic data (:mod:`hunfold.harmonic`),
proximal solvers (:mod:`hunfold.solvers`), unfolded shrinkage networks with
hand-rolled training (:mod:`hunfold.nets`, :mod:`hunfold.training`), and a
reproducible benchmark runner (:mod:`hunfold.bench`, CLI in
:mod:`hunfold.cli`).
"""

__version__ = "0.1.0"

from .cplx import (ComplexArray, NumericError, PowerIterEstimate, hermitian,
                   lipschitz_constant, matvec, soft_threshold)
from .spectral import Toeplitz, conv1d, toeplitz_expand, toeplitz_extract
from .harmonic import (Dataset, Dictionary, SamplingSet, SparseInstance,
                       add_noise, build_dictionary, draw_sampling,
                       fourier_matrix, gen_dataset, gen_sparse_signal, gram,
                       gram_generator, make_instance, read_dataset,
                       synth_offgrid, write_dataset)
from .solvers import SolverConfig, SolverResult, default_lambda, fista, ista, objective
from .nets import (ARCHS, Layer, UnfoldedNetwork, forward, init_network,
                   load_network, param_count, save_network)
from .training import (AdamState, TrainConfig, TrainReport, adam_step,
                       backward, estimate_dictionary, init_adam_state,
                       loss_nmse, train)
from .metrics import hit_rate_metric, nmse_metric
