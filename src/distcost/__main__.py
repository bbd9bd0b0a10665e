import sys

from .cli import entry, script

if sys.modules["__main__"].__dict__ is globals():
    # python -m distcost: this module is the process's own __main__
    script()
else:
    # run inside another program, as runpy.run_module(run_name="__main__")
    # does, which carries on after the SystemExit
    sys.exit(entry())
