"""What importing evlight loads: scipy.special comes with the network only.

Each probe runs in a fresh process, so the modules pytest and the other
tests have imported do not count.
"""
import json
import os
import subprocess
import sys

import evlight

# loaded by scipy.special, through scipy's array-API layer; none of them is
# needed by a command that builds no model
_NETWORK_ONLY = ("scipy.special", "numpy.f2py", "numpy.testing")

# Runs every command that builds no model on tiny inputs in the directory
# given as argv[1], then builds a model; prints which of _NETWORK_ONLY were
# loaded after the commands and after the model.
_COMMANDS_PROBE = """
import json, os, sys
import evlight, evlight.cli
from evlight.cli import main
names, d = json.loads(sys.argv[2]), sys.argv[1]
loaded = lambda: [m for m in names if m in sys.modules]
scene = os.path.join(d, "data", "scene_0")
low, gt = os.path.join(scene, "low.ppm"), os.path.join(scene, "gt.ppm")
meta = os.path.join(d, "meta.csv")
with open(meta, "w") as f:
    f.write("id,condition,trajectory_start,first_frame,frame_interval\\n"
            "l0,low,1000000,1005000,33000\\nn0,normal,9000000,9006000,33000\\n")
commands = [
    ["fixtures", "--out-dir", os.path.join(d, "data"), "--count", "1", "--size", "16"],
    ["simulate-events", "--frame-a", low, "--frame-b", gt, "--out", os.path.join(d, "e.evst")],
    ["voxelize", "--events", os.path.join(scene, "events.evst"), "--out", os.path.join(d, "v.npy")],
    ["snr-map", "--image", low, "--out-norm", os.path.join(d, "n.pfm"),
     "--out-binary", os.path.join(d, "b.pgm")],
    ["lightup", "--image", low, "--out", os.path.join(d, "lu.pfm")],
    ["align-match", "--meta", meta, "--out", os.path.join(d, "pairs.csv")],
]
codes = [main(argv) for argv in commands]
after_commands = loaded()
import numpy as np
from evlight.model import EvLightModel
EvLightModel(np.random.default_rng(0), base_channels=4, bins=4)
print(json.dumps({"codes": codes, "after_commands": after_commands,
                  "after_model": loaded()}))
"""

# Calls gelu for the first time on two threads at once, one input recording
# a graph and one not, and checks each value and the recorded derivative
# against the formula bit for bit.
_GELU_PROBE = """
import math, sys, threading
import numpy as np
import evlight.tensor as T
assert "scipy.special" not in sys.modules
T.cores = lambda: 2
rng = np.random.default_rng(0)
xs = [T.Tensor(rng.normal(0.0, 3.0, (64, 64)), requires_grad=True),
      T.Tensor(rng.normal(0.0, 3.0, (64, 64)))]
meet = threading.Barrier(2, timeout=30)

def first_call(x):
    meet.wait()
    return T.gelu(x)

ys = T.each(first_call, xs)
from scipy.special import erf
for x, y in zip(xs, ys):
    assert np.array_equal(y.data, 0.5 * x.data * (1.0 + erf(x.data / math.sqrt(2.0))))
xd = xs[0].data
d = 0.5 * (1.0 + erf(xd / math.sqrt(2.0))) \\
    + xd * (np.exp(-0.5 * xd ** 2) / math.sqrt(2.0 * math.pi))
(got,) = ys[0]._node.backward(np.ones_like(xd))
assert np.array_equal(got, d)
assert ys[1]._node is None
print("ok")
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(evlight.__file__))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def test_only_a_model_loads_scipy_special(tmp_path):
    out = _run(_COMMANDS_PROBE, str(tmp_path), json.dumps(_NETWORK_ONLY))
    got = json.loads(out.stdout.splitlines()[-1])  # the commands print first
    assert got["codes"] == [0] * 6
    assert got["after_commands"] == []
    assert "scipy.special" in got["after_model"]


def test_first_gelu_call_on_two_threads():
    assert _run(_GELU_PROBE).stdout.split() == ["ok"]
