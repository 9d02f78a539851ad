#!/bin/sh
# Shell spelling of the one command; see run.py.
exec python3 "$(dirname "$0")/run.py" "$@"
