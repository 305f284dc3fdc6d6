#!/usr/bin/env bash
# Two checks on library source that no type or lint expresses (DESIGN.md
# section 10). Each reads a file up to its `#[cfg(test)]` module.
#
#   bash scripts/source_gates.sh
#
# * Sizes are computed: a wire size is a sum over field lengths, never the
#   length of a materialised value (`to_string().len()`,
#   `encode().len()`); a debug_assert line may compare the two.
# * Metrics are read by declared name: a string literal as the first
#   argument of a by-name read is a name nobody declared (writes cannot
#   take one).
#
# Prints each gate that has hits, then its hits as FILE:LINE: text, and
# exits 1 if either gate has any. CI runs it, and scripts/mutants.tsv
# shows that each gate fires.
set -uo pipefail
cd "$(git rev-parse --show-toplevel)" || exit 2

sizes=$(find crates/{proto,nodes,simnet,httpsim,dnswire}/src -name '*.rs' -print0 |
    xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile }
        !/debug_assert/ && /(to_string|encode)\(\)\.len\(\)/ { print FILENAME ":" FNR ": " $0 }')
reads=$(find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile }
        !/^ *\/\// && /\.(counter|histogram|time_series|mean|quantile)\( *"/ { print FILENAME ":" FNR ": " $0 }')

status=0
if [[ -n $sizes ]]; then
    printf 'A size measured by materialising the value:\n%s\n' "$sizes"
    status=1
fi
if [[ -n $reads ]]; then
    printf 'A metric read by a literal name:\n%s\n' "$reads"
    status=1
fi
exit $status
