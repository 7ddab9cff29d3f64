"""One cold start of an in-process workload (run as a child process).

Imports the program, generates the workload's first (lowest-utilisation)
task set, analyses it through the public API and prints ``ready``.  The
parent times spawn-to-``ready``: imports plus lazy set-up plus one
served request.

Usage: python3 perfbench/coldstart.py {fig7-accept|fig6-population} SEED
"""

import sys

from common import fig6_request, fig7_request, import_program


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import_program()
    import numpy as np
    from repro import api
    from repro.generator.taskgen import (
        FIG7_CONFIG,
        GeneratorConfig,
        generate_taskset,
        generate_taskset_with_targets,
    )

    rng = np.random.default_rng([seed, 0, 0, 0])
    if workload == "fig7-accept":
        taskset = generate_taskset_with_targets(
            0.1, 0.1, rng, FIG7_CONFIG, name="cold", jitter=0.025
        )
        requests, population = [fig7_request(taskset)], False
    else:
        taskset = generate_taskset(0.4, rng, GeneratorConfig(), name="cold")
        requests, population = [fig6_request(taskset)], True
    (report,) = api.analyze_many(requests, jobs=1, population=population)
    if report.failure is not None:
        print(f"failed: {report.failure}", flush=True)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
