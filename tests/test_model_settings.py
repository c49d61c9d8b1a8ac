"""Every model setting is read by the model.

The eight config and spec classes of the model layer
(``benchmarks/loc.py::SETTINGS``, which ``make loc`` counts) hold every value a
caller can set on a tile, chip, device or noise stack.  A field that no
code reads is a setting that changes nothing: it is accepted and then
ignored, and a caller who sets it is misled.  ``TestEveryFieldIsRead``
scans ``src/`` with the AST and checks that each field is read outside
its own class body -- directly (``config.num_hcts``) or through a
property or method of the class that is itself read outside it
(``AdcSpec.resolution_bits`` through ``spec.levels``).  Validation in
``__init__`` / ``__post_init__`` is not a read.

The scan matches attribute *names*, so a field whose name another object
also uses counts as read: it finds the settings nothing reads, not every
dead one.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from benchmarks.loc import SETTINGS
from repro.analog import AdcSpec, DacSpec, DigitalToAnalogConverter, RampAdc, SarAdc, make_adc
from repro.analog.ace import AceConfig, AnalogComputeElement
from repro.analog.crossbar import AnalogCrossbar
from repro.core import ChipConfig, HctConfig, HybridComputeTile
from repro.digital.dce import DceConfig, DigitalComputeElement
from repro.errors import ConfigurationError
from repro.reram import DeviceParameters, NoiseConfig, NoiseStack

SRC = Path(repro.__file__).resolve().parent
#: Fields only their own class reads, kept on purpose: each is refused.
REFUSED = {
    (NoiseConfig, "drift"): "refused until an MVM path applies DriftModel (ROADMAP item 5)",
    (NoiseConfig, "ir_drop"): "refused: IR drop enters through a ParasiticModel on a tile",
}
CONSTRUCTORS = {"__init__", "__post_init__"}


def settings_of(cls):
    """The values a caller can set: the constructor's parameters."""
    return list(inspect.signature(cls).parameters)


def attribute_loads(tree):
    """``(line, name)`` of every attribute read in ``tree``."""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


@pytest.fixture(scope="module")
def loads():
    """``{path: [(line, attribute name), ...]}`` over every ``src/`` file."""
    return {path: attribute_loads(ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))}


def unread_settings(cls, loads):
    """The settings of ``cls`` nothing outside its class body reads."""
    path = Path(inspect.getsourcefile(cls)).resolve()
    body = next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__)
    inside = range(body.lineno, body.end_lineno + 1)
    outside = {name for file, found in loads.items() for line, name in found
               if file != path or line not in inside}
    members = {node.name: {name for _, name in attribute_loads(node)}
               for node in body.body
               if isinstance(node, ast.FunctionDef) and node.name not in CONSTRUCTORS}
    read, grown = set(outside), True
    while grown:  # a member read from outside reads what it reads
        reached = set().union(*(members[name] for name in read & members.keys()))
        grown = not reached <= read
        read |= reached
    return [name for name in settings_of(cls) if name not in read]


class TestEveryFieldIsRead:
    @pytest.mark.parametrize("cls", SETTINGS, ids=lambda cls: cls.__name__)
    def test_every_setting_is_read_outside_its_class(self, cls, loads):
        unread = [name for name in unread_settings(cls, loads) if (cls, name) not in REFUSED]
        assert unread == [], f"{cls.__name__} settings nothing reads: {unread}"

    @pytest.mark.parametrize("cls, name", REFUSED, ids=lambda value: getattr(
        value, "__name__", value))
    def test_an_allowlisted_setting_is_refused(self, cls, name):
        with pytest.raises(ConfigurationError):
            cls(**{name: True})


class TestTheSurface:
    def test_settable_values(self):
        assert sum(len(settings_of(cls)) for cls in SETTINGS) <= 36

    def test_the_deleted_settings_stay_deleted(self):
        gone = {
            ChipConfig: ("clock_hz",), DceConfig: ("issue_queue_depth",),
            AceConfig: ("input_buffer_area_um2",), AdcSpec: ("area_um2",),
            DacSpec: ("area_um2",), DeviceParameters: ("read_energy_pj",),
            # A source is stated by its strength alone (0 is off).
            NoiseConfig: ("drift_rate", "programming_noise", "read_noise", "stuck_at_faults"),
            HybridComputeTile: ("ledger",), DigitalComputeElement: ("lazy",),
            AnalogComputeElement: ("adc_spec",), AnalogCrossbar: ("sample_hold_energy_pj",),
            SarAdc: ("spec",), RampAdc: ("spec",), DigitalToAnalogConverter: ("spec",),
        }
        for cls, names in gone.items():
            for name in names:
                assert name not in settings_of(cls), f"{cls.__name__}({name}=) is back"
        assert "spec" not in settings_of(make_adc)
        assert "adc_kind" not in settings_of(HctConfig)
        assert "adcs_per_array" not in settings_of(AceConfig)
        assert not hasattr(NoiseStack(DeviceParameters()), "drift")

    @pytest.mark.parametrize("kind, adcs", [("sar", 2), ("ramp", 1)])
    def test_the_adc_family_has_one_home(self, kind, adcs):
        """``AceConfig.adc_kind`` decides the family; the tile reads it and
        the ADC count per array follows from it (Table 2)."""
        for config in (HctConfig.paper_default(kind), HctConfig.small(kind)):
            assert (config.adc_kind, config.ace.adc_kind) == (kind, kind)
            assert config.ace.adcs_per_array == adcs
        tile = HybridComputeTile(HctConfig.small(kind))
        handle = tile.set_matrix([[1, 2], [3, 4]], value_bits=4)
        crossbar = tile.ace.crossbar(handle.array_ids[0])
        assert (crossbar.adc.kind, crossbar.num_adcs) == (kind, adcs)
        with pytest.raises(ConfigurationError, match="adc_kind"):
            AceConfig(adc_kind="flash")
