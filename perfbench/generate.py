"""Write a workload's inputs: the network file and the oracle's ground truth.

Run as a separate process by ``run.py`` so that generation stays out of
every timed region and out of the measured process's peak RSS::

    python3 perfbench/generate.py OUT_DIR '{"n_correspondences": 1500, ...}'

The JSON argument holds the ``synthetic_fixture`` keyword arguments
(seed included).  Writes ``OUT_DIR/network.json`` with
``repro.io.dump_network`` and ``OUT_DIR/truth.json`` with
``repro.io.matching_to_dict``.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def generate(out_dir: pathlib.Path, shape: dict) -> None:
    from repro import io
    from repro.experiments import synthetic_fixture

    fixture = synthetic_fixture(**shape)
    io.dump_network(fixture.network, str(out_dir / "network.json"))
    with open(out_dir / "truth.json", "w") as handle:
        json.dump(io.matching_to_dict(fixture.ground_truth), handle)


if __name__ == "__main__":
    generate(pathlib.Path(sys.argv[1]), json.loads(sys.argv[2]))
