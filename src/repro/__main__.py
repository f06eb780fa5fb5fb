"""``python -m repro`` entry point."""

from repro.cli.main import console_main

if __name__ == "__main__":
    console_main()
