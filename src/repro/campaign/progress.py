"""Throttled progress and ETA reporting for campaigns.

The reporter is deliberately tiny: it never touches the terminal beyond
writing complete lines to the given stream (so output composes with pipes,
CI logs and pytest capture), and it rate-limits itself so million-job
campaigns do not drown their own output.
"""

from __future__ import annotations

# repro-lint: allow-file[DET001] — throughput and ETA lines are wall-clock
# telemetry for the operator; nothing here feeds results or seeds.

import sys
import time
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..obs.profiler import CampaignProfiler

__all__ = ["NullProgress", "ProgressReporter"]


class NullProgress:
    """The no-op reporter used when nobody is watching."""

    def start(self, total: int, skipped: int = 0) -> None:
        """Begin a campaign of ``total`` jobs (``skipped`` already done)."""

    def advance(self, label: str = "") -> None:
        """Record one completed job."""

    def retry(
        self, label: str, attempt: int, max_attempts: int, kind: str, delay: float
    ) -> None:
        """A job failed (``kind``) and will run attempt ``attempt`` after ``delay``."""

    def quarantine(self, label: str, attempt: int, kind: str) -> None:
        """A poison job exhausted its attempts and was quarantined."""

    def degrade(self, pool_failures: int) -> None:
        """The parallel executor fell back to serial in-process execution."""

    def report_profile(self, profiler: "CampaignProfiler") -> None:
        """Summarise a campaign phase profile (no-op)."""

    def finish(self) -> None:
        """The campaign is over."""


class ProgressReporter(NullProgress):
    """Print ``completed/total`` lines with a simple rate-based ETA.

    A line is emitted at most every ``min_interval`` seconds (plus one final
    summary), so the report cost stays constant no matter how many jobs the
    campaign has.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        min_interval: float = 1.0,
        prefix: str = "campaign",
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.prefix = prefix
        self._total = 0
        self._skipped = 0
        self._completed = 0
        self._started_at = 0.0
        self._last_report = 0.0

    # ------------------------------------------------------------------
    def start(self, total: int, skipped: int = 0) -> None:
        self._total = total
        self._skipped = skipped
        self._completed = 0
        self._started_at = time.monotonic()
        # Throttle from the campaign start, not from the epoch of the
        # monotonic clock: with a 0.0 sentinel the first advance() emitted
        # unconditionally once the host's uptime exceeded min_interval.
        self._last_report = self._started_at
        if skipped:
            self._emit(
                f"[{self.prefix}] resuming: {skipped}/{total} jobs already in the store"
            )

    def advance(self, label: str = "") -> None:
        self._completed += 1
        now = time.monotonic()
        if now - self._last_report < self.min_interval:
            return
        self._last_report = now
        self._emit(self._format_line(now, label))

    def retry(
        self, label: str, attempt: int, max_attempts: int, kind: str, delay: float
    ) -> None:
        # Failures are rare and load-bearing: report them unthrottled.
        backoff = f", backoff {delay:.2f}s" if delay else ""
        self._emit(
            f"[{self.prefix}] retry {label}: {kind}, "
            f"attempt {attempt}/{max_attempts}{backoff}"
        )

    def quarantine(self, label: str, attempt: int, kind: str) -> None:
        self._emit(
            f"[{self.prefix}] quarantined {label} after "
            f"{attempt} attempt{'s' if attempt != 1 else ''} ({kind})"
        )

    def degrade(self, pool_failures: int) -> None:
        self._emit(
            f"[{self.prefix}] degraded to serial execution after "
            f"{pool_failures} consecutive worker-pool failures"
        )

    def report_profile(self, profiler: "CampaignProfiler") -> None:
        phases = ", ".join(
            f"{phase} {profiler.seconds[phase]:.2f}s" for phase in profiler.PHASES
        )
        self._emit(
            f"[{self.prefix}] profile: wall {profiler.wall_seconds:.2f}s, "
            f"{profiler.coverage:.0%} attributed ({phases})"
        )

    def finish(self) -> None:
        if not self._total:
            return
        elapsed = time.monotonic() - self._started_at
        executed = self._completed
        self._emit(
            f"[{self.prefix}] done: {executed} jobs executed, "
            f"{self._skipped} reused from store, {elapsed:.1f}s elapsed"
        )

    # ------------------------------------------------------------------
    def _format_line(self, now: float, label: str) -> str:
        done = self._skipped + self._completed
        elapsed = now - self._started_at
        remaining = self._total - done
        if self._completed and remaining > 0:
            eta = elapsed / self._completed * remaining
            eta_text = f", eta {eta:.1f}s"
        else:
            eta_text = ""
        percent = 100.0 * done / self._total if self._total else 100.0
        suffix = f" ({label})" if label else ""
        return (
            f"[{self.prefix}] {done}/{self._total} jobs ({percent:.0f}%), "
            f"{elapsed:.1f}s elapsed{eta_text}{suffix}"
        )

    def _emit(self, line: str) -> None:
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):  # closed stream; reporting is best-effort
            pass
