"""``python -m tabseq``: the same command line as the ``tabseq`` script."""

from .cli import main

if __name__ == "__main__":
    main()
