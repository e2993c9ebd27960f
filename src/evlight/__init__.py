"""Event-guided low-light image enhancement.

A numpy-based implementation of an SNR-guided fusion pipeline: events are
voxelized into temporal bins, a learned light-up stage brightens the
input, and a UNet-like network fuses image and event features under a
signal-to-noise-ratio trust map. The hot kernels are plain numpy.
"""
from ._kernels import BACKEND
from .alignment import AlignReport, MatchResult, SequenceMeta, align_report, interval, match
from .events import (EventFormatError, EventStream, VoxelGrid, read_events,
                     simulate_events, voxelize, write_events)
from .image import (ImageFormatError, pad_reflect, psnr, psnr_star,
                    read_image, ssim, to_gray, write_image)
from .lightup import (LightUpEstimator, illumination_prior, light_up, snr_map,
                      snr_pyramid)
from .blocks import EcaResidual, Hfe, Hrf, RegionalSelect
from .model import EvLightModel, enhance_file, infer_architecture
from .module import (CheckpointError, Module, load_checkpoint, save_checkpoint)
from .tensor import NonFiniteError, Parameter, ShapeError, Tensor, backward
from .training import (Adam, RandomConvFeatures, SamplePair, TrainConfig,
                       augment, charbonnier, clip_grad_norm, parse_config,
                       parse_manifest, perceptual, total_loss, train)
from .fixtures import fixtures, lowlight_of, make_scene, render_frame

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    "Tensor", "Parameter", "ShapeError", "NonFiniteError", "backward",
    "Module", "CheckpointError", "save_checkpoint", "load_checkpoint",
    "EventStream", "VoxelGrid", "EventFormatError",
    "voxelize", "read_events", "write_events", "simulate_events",
    "ImageFormatError", "to_gray", "psnr", "ssim", "psnr_star",
    "read_image", "write_image", "pad_reflect",
    "LightUpEstimator", "illumination_prior", "light_up", "snr_map",
    "snr_pyramid",
    "EcaResidual", "RegionalSelect", "Hfe", "Hrf",
    "EvLightModel", "enhance_file", "infer_architecture",
    "charbonnier", "perceptual", "total_loss", "RandomConvFeatures",
    "Adam", "clip_grad_norm", "augment", "train",
    "TrainConfig", "SamplePair", "parse_manifest", "parse_config",
    "SequenceMeta", "MatchResult", "AlignReport", "interval", "match",
    "align_report",
    "fixtures", "make_scene", "render_frame", "lowlight_of",
]
