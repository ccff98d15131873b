#!/bin/sh
# One line per gpuplanner subcommand: its name, then the names of its
# options, sorted, as `--help=plain` lists them.  Aliases that the help
# prints on one line (`-q, --quiet`) are split into separate names.
#
#   sh cli_flags.sh path/to/gpuplanner.exe
set -eu
exe=$1
export LC_ALL=C
commands=$("$exe" --help=plain |
  awk '/^COMMANDS/ { on = 1; next } /^[A-Z]/ { on = 0 } on && /^       [a-z]/ { print $1 }')
for cmd in $commands; do
  names=$("$exe" "$cmd" --help=plain |
    awk '/^       -/ {
      sub(/^ +/, ""); sub(/ \(.*$/, "")
      n = split($0, parts, ", ")
      for (i = 1; i <= n; i++) {
        name = parts[i]; sub(/=.*$/, "", name); sub(/\[.*$/, "", name); sub(/ .*$/, "", name)
        print name
      }
    }' | sort | tr '\n' ' ')
  echo "$cmd ${names% }"
done
