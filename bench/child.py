"""One repetition of one workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is "setup" (set up and stop), "run" (set up, run the timed operations,
check them) or "trace" (the same with every library layer traced; the
spans are written to SPANS_PATH).  The last line of
standard output is one JSON object; `ready` is CLOCK_MONOTONIC at the end of
set-up, which the parent compares with the moment it started this process,
less `setup_calibration_s`, and scales by `setup_speed` (see calibrate.py).
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import Sampler  # noqa: E402

CALIBRATION_BURSTS = 5


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sampler = Sampler()
    sampler.sample(CALIBRATION_BURSTS)
    out = {"setup_calibration_s": sampler.spent(), "setup_speed": sampler.speed()}
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed)
    out["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode != "setup":
        wall = 0.0
        observations = []
        first = len(sampler.bursts)
        with sampler:
            for call, observe in workload.operations(state):
                spent = sampler.spent()
                t0 = time.perf_counter()
                result = call()
                wall += time.perf_counter() - t0 - (sampler.spent() - spent)
                observations.append(observe(result))
                del result
        sampler.sample(CALIBRATION_BURSTS)
        out["wall_raw"] = wall
        out["speed"] = sampler.speed(first)
        out["wall"] = wall * out["speed"]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, mismatches = workload.check(state, observations)
        self_test = all(workload.check(state, damaged)[2]
                        for damaged in workload.corruptions(observations))
        out.update(attempted=attempted, failed=failed, mismatches=mismatches,
                   self_test=self_test)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(argv[3])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
