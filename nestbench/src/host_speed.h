// Host speed probe.
//
// The machines this benchmark runs on are shared: their CPU speed drifts by
// up to 2x over minutes as neighbours come and go, which moves every host
// time far more than a code change would. The probe is a fixed piece of
// work owned by the benchmark (standard library only, no nestsim code, so no
// change to the program can speed it up): heap churn and a pointer chase
// over a shuffled 1 MiB array, the access pattern of a discrete-event loop.
// Timing it next to each pass measures how fast the host is right now, and
// the end-to-end times are reported at the reference speed:
//
//   reported = measured * kReferenceProbeSeconds / probe seconds
//
// The raw host times and the speed factor are printed beside them.

#ifndef NESTBENCH_SRC_HOST_SPEED_H_
#define NESTBENCH_SRC_HOST_SPEED_H_

namespace nestbench {

// What the probe takes on the reference host (a 4-vCPU Xeon VM at its
// typical speed), so reported times stay close to raw ones there.
inline constexpr double kReferenceProbeSeconds = 0.030;

// Runs the probe once; returns its host seconds.
double ProbeSeconds();

// `seconds` of host time measured between two probes, at the reference speed.
inline double AtReferenceSpeed(double seconds, double probe_before, double probe_after) {
  return seconds * kReferenceProbeSeconds / (0.5 * (probe_before + probe_after));
}

}  // namespace nestbench

#endif  // NESTBENCH_SRC_HOST_SPEED_H_
