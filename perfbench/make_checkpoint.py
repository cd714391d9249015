"""Train the checkpoint that every perfbench workload measures.

Recipe: the default ModelConfig (depth 8, d_model 64, d_inner 32, d_state 8,
49 tokens, no reduction) trained with the test suite's baseline recipe
(seed 0, 6 epochs, batch 32, lr 3e-3 -> 3e-4, weight decay 5e-2) on
synth_dataset(32, 10, 28, 1234). Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_checkpoint.py

It rewrites perfbench/checkpoint.meeto and perfbench/checkpoint.sha256. The
benchmark never retrains; it refuses a checkpoint whose hash differs.
"""

import hashlib
import os

from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab import train as tr

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "checkpoint.meeto")
DIGEST = os.path.join(HERE, "checkpoint.sha256")


def main():
    model = mdl.init_model(mdl.ModelConfig(), seed=0)
    cfg = tr.TrainConfig(seed=0, epochs=6, batch_size=32, lr_start=3e-3,
                         lr_end=3e-4, weight_decay=5e-2)
    report = tr.retrain(model, ds.synth_dataset(32, 10, 28, 1234), cfg)
    mdl.save_checkpoint(model, CHECKPOINT)
    with open(CHECKPOINT, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(DIGEST, "w") as f:
        f.write(digest + "\n")
    print(f"train accuracy {report.final_accuracy:.4f}  sha256 {digest}")


if __name__ == "__main__":
    main()
