"""Set-up probe: import the package, build a workload's config, say "ready".

``run.py`` starts a fresh interpreter on this file and times it up to the
"ready" line; the arguments are the workload's command-line flags.
"""

import sys

from cotangent_kahler.cli import build_parser, config_from_args

config_from_args(build_parser().parse_args(sys.argv[1:]))
print("ready", flush=True)
