"""Size baseline for simplicity PRs (``make loc``).

Prints, for ``src/``, total lines and *code* lines (blank lines, comments
and docstrings excluded -- the count a "this PR removed N lines" claim is
judged on), the same subtotal for the cluster tier (``repro/runtime/cluster/``),
the largest files, the constructor parameter counts of the three wide
front doors and of the circuit breaker and the ABFT checker, and the
number of settable model values -- the fields of the eight config and spec
classes plus the keywords of the model elements' constructors -- so the
next simplicity PR starts from numbers instead of hand counting.  Numbers
to start from, not a ratchet: a bound on line counts would reward dense
code (``tests/test_model_settings.py`` holds the settings to account).
"""

from __future__ import annotations

import inspect
import io
import tokenize
from pathlib import Path

import repro
from repro import DevicePool, PumServer
from repro.analog import AdcSpec, DacSpec, DigitalToAnalogConverter, RampAdc, SarAdc
from repro.analog.ace import AceConfig, AnalogComputeElement
from repro.analog.crossbar import AnalogCrossbar
from repro.core import ChipConfig, HctConfig, HybridComputeTile
from repro.digital.dce import DceConfig, DigitalComputeElement
from repro.reram import DeviceParameters, NoiseConfig
from repro.runtime import IntegrityChecker
from repro.runtime.cluster import CircuitBreaker, ClusterGateway

#: The source tree that is actually imported (``PYTHONPATH=src``).
SRC = Path(repro.__file__).resolve().parent.parent
#: The tier with its own subtotal line.
CLUSTER = Path("repro/runtime/cluster")
#: The model layer's config and spec classes: every value a caller sets on
#: a tile, chip, device or noise stack.
SETTINGS = (HctConfig, AceConfig, DceConfig, ChipConfig, NoiseConfig, AdcSpec, DacSpec,
            DeviceParameters)
#: The model elements whose constructors take settings beside a config.
ELEMENTS = (HybridComputeTile, AnalogComputeElement, DigitalComputeElement, AnalogCrossbar,
            SarAdc, RampAdc, DigitalToAnalogConverter)
STATEMENT_ENDS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
NOT_CODE = STATEMENT_ENDS + (tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER)


def code_lines(text: str) -> int:
    """Lines carrying at least one token that is not comment or docstring."""
    lines = set()
    statement_start = True
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in NOT_CODE:
            statement_start = statement_start or token.type in STATEMENT_ENDS
            continue
        # A string that opens a statement is a docstring.
        if not (token.type == tokenize.STRING and statement_start):
            lines.update(range(token.start[0], token.end[0] + 1))
        statement_start = False
    return len(lines)


def parameters(cls) -> int:
    """How many parameters ``cls``'s constructor takes."""
    return len(inspect.signature(cls).parameters)


def main() -> None:
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        rows.append((text.count("\n"), code_lines(text), path.relative_to(SRC)))
    for label, part in (
        ("src/", rows),
        (f"  {CLUSTER}/", [row for row in rows if CLUSTER in row[2].parents]),
    ):
        print(f"{label}: {sum(r[0] for r in part)} lines, "
              f"{sum(r[1] for r in part)} code lines, {len(part)} files")
    for total, code, path in sorted(rows, reverse=True)[:8]:
        print(f"  {total:6d} lines {code:6d} code  {path}")
    for cls in (ClusterGateway, PumServer, DevicePool, CircuitBreaker, IntegrityChecker):
        print(f"{cls.__name__}: {parameters(cls)} constructor parameters")
    fields, keywords = (sum(map(parameters, group)) for group in (SETTINGS, ELEMENTS))
    print(f"model settings: {fields + keywords} ({fields} fields of {len(SETTINGS)} "
          f"config/spec classes + {keywords} keywords of {len(ELEMENTS)} element "
          "constructors)")


if __name__ == "__main__":
    main()
