"""Set-up probe: import chowcert from the given source tree, warm it up,
and print `ready`.  run.py times fresh processes of this script.

    python3 perfbench/setup_probe.py <src dir> <seed>
"""

import sys

sys.path.insert(0, sys.argv[1])

import chowcert  # noqa: E402

# fills the monomial-basis caches and starts the BLAS threads
chowcert.certify(2, seed=int(sys.argv[2]))
print("ready", flush=True)
