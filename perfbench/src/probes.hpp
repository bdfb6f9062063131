// Host probes: fixed amounts of benchmark-owned work, timed beside the
// simulator's, whose time depends only on how fast the host runs at that
// moment. The reference probe normalises the host-time metrics; the CPU and
// L3 probes are diagnostics that say which part of the host moved.
#pragma once

namespace perfbench {

/// What the reference probe takes on the host the normalised host-time
/// metrics are expressed for: a normalised time is the measured time scaled
/// by kRefProbeNominalMs / (the reference probe's mean time over the run).
inline constexpr double kRefProbeNominalMs = 120.0;

/// Milliseconds for a fixed mix of the simulator's kinds of work, in two
/// parts of about equal time: memory-bound (updates in a fresh hash map of
/// 256k keys, random read-modify-writes over a fresh 8 MiB table, a bounded
/// binary heap) and the CPU probe's loop. Alone, the memory-bound part
/// over-reacts to shared-cache contention and the loop under-reacts; timed
/// beside the simulator on a shared host, their sum moved with its wall time
/// to within a few percent where the simulator's own time moved by 1.5x.
/// With `threads` > 1, that many copies run at once (one per worker thread
/// of the unit it is timed beside) and the probe takes the slowest.
[[nodiscard]] double ref_probe_ms(unsigned threads);

/// Milliseconds for a fixed register-only integer loop (four independent
/// xorshift chains).
[[nodiscard]] double cpu_probe_ms();

/// Milliseconds for a fixed dependent pointer chase over a 4 MiB ring:
/// larger than a core's L2, well inside a shared L3.
[[nodiscard]] double l3_probe_ms();

}  // namespace perfbench
