"""Engine construction helpers shared by the experiment harnesses.

The paper builds multiple engines per (model, platform) pair — three
each on NX and AGX for the consistency study — and reuses them across
experiments.  :class:`EngineFarm` memoizes those builds with stable
per-slot seeds so every table regenerates identically run-to-run while
still exhibiting build-to-build diversity (different seeds per slot,
exactly like rebuilding on a real board at different moments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import EngineStore
from repro.graph.ir import Graph
from repro.hardware.specs import DeviceSpec, XAVIER_AGX, XAVIER_NX
from repro.models import build_model


def device_by_name(name: str) -> DeviceSpec:
    devices = {"NX": XAVIER_NX, "AGX": XAVIER_AGX}
    try:
        return devices[name]
    except KeyError:
        raise KeyError(f"unknown device {name!r}; use NX or AGX") from None


class EngineFarm:
    """Memoizes engines per (model, device, slot index, provider)."""

    def __init__(
        self,
        precision: PrecisionMode = PrecisionMode.FP16,
        pretrained: bool = True,
        base_seed: int = 1000,
        store: Optional["EngineStore"] = None,
        provider: Optional[str] = None,
    ):
        self.precision = precision
        self.pretrained = pretrained
        self.base_seed = base_seed
        #: Default execution provider(s) for every build — the
        #: canonical ``provider=`` axis ("trt", "cuda", "cpu", "auto",
        #: or a comma list); per-call ``engine(provider=...)`` wins.
        self.provider = provider
        #: Optional persistent :class:`~repro.engine.store.EngineStore`.
        #: When set, builds route through the content-addressed store:
        #: every slot of a (model, device) pair resolves to the *same*
        #: cached artifact (store keys exclude the seed), which is the
        #: deployment posture — leave unset for the consistency studies
        #: that rely on build-to-build diversity across slots.
        self.store = store
        self._graphs: Dict[str, Graph] = {}
        self._engines: Dict[Tuple[str, str, int, str], Engine] = {}

    # ------------------------------------------------------------------
    def graph(self, model_name: str) -> Graph:
        if model_name not in self._graphs:
            self._graphs[model_name] = build_model(
                model_name, pretrained=self.pretrained
            )
        return self._graphs[model_name]

    def _slot_seed(self, model_name: str, device_name: str, slot: int) -> int:
        # Stable, distinct seed per slot: the harness regenerates the
        # same 'engine 1/2/3' every run, like loading saved plans.
        return int(
            np.random.SeedSequence(
                [self.base_seed, hash(model_name) & 0xFFFF,
                 hash(device_name) & 0xFFFF, slot]
            ).generate_state(1)[0]
            % (2 ** 31)
        )

    def engine(
        self,
        model_name: str,
        device_name: str,
        slot: int = 0,
        calibration_batch: Optional[np.ndarray] = None,
        provider: Optional[str] = None,
    ) -> Engine:
        """The ``slot``-th engine of ``model_name`` built on a device."""
        from repro.runtime.providers import canonical_provider_key

        spec = provider if provider is not None else self.provider
        provider_key = canonical_provider_key(
            spec if spec is not None else "trt"
        )
        key = (model_name, device_name, slot, provider_key)
        if key not in self._engines:
            self._engines[key] = self._build(
                model_name,
                device_name,
                seed=self._slot_seed(model_name, device_name, slot),
                calibration_batch=calibration_batch,
                provider=spec if spec is not None else "trt",
            )
        return self._engines[key]

    def pinned_engine(self, model_name: str, device_name: str) -> Engine:
        """One engine per (model, device), identical across processes.

        ``engine()``'s slot seeds mix ``hash(model_name)``, which the
        interpreter salts per process (PYTHONHASHSEED) — good for the
        build-consistency studies that want build-to-build diversity,
        wrong for artifacts that must be byte-identical across separate
        invocations (fleet reports, interference matrices).  This path
        pins ``seed=base_seed`` and the default TRT provider so the
        same farm settings always reproduce the same engine.
        """
        key = (model_name, device_name, -1, "trt")
        if key not in self._engines:
            self._engines[key] = self._build(
                model_name, device_name, seed=self.base_seed
            )
        return self._engines[key]

    def _build(
        self, model_name: str, device_name: str, **config: Any
    ) -> Engine:
        """Build one engine at the farm's precision, through the store
        when one is set."""
        device = device_by_name(device_name)
        build_config = BuilderConfig(
            precision=self.precision,
            input_name=self._input_name(model_name),
            **config,
        )
        if self.store is not None:
            engine, _ = self.store.get_or_build(
                self.graph(model_name), device, build_config
            )
            return engine
        return EngineBuilder(device, build_config).build(
            self.graph(model_name)
        )

    def engines(
        self,
        model_name: str,
        device_name: str,
        count: int,
        provider: Optional[str] = None,
    ) -> List[Engine]:
        """``count`` independently built engines on one device."""
        return [
            self.engine(model_name, device_name, slot, provider=provider)
            for slot in range(count)
        ]

    @staticmethod
    def _input_name(model_name: str) -> str:
        from repro.models import MODEL_REGISTRY

        return MODEL_REGISTRY[model_name].input_name
