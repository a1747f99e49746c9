import os
import sys

from bench import SRC

if __name__ == "__main__":
    # Checked before anything imports the program: a checkout without
    # it must fail fast and print no result.
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program under test at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    from bench.runner import main

    sys.exit(main())
