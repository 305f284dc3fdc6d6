#!/usr/bin/env bash
# Shows that every check in the mutation table bites: each row of
# mutants.tsv (next to this script) breaks the program in one place, and
# the row's command must then fail with the row's failure text.
#
#   bash scripts/mutants.sh
#
# First the whole table is checked: every row has its six or more columns,
# a unique name, a `+A -D` numstat, and a file that exists and matches
# HEAD, and every integration test binary is named by a `--test`. Nothing
# is edited until all of that holds (exit 2 if it does not). Then, row by row, the file is saved, the row's sed expression
# is applied, `git diff --numstat` against HEAD must equal the row's, the
# row's command runs with its output in target/mutants/<name>.log, and the
# file is restored from the saved copy (also on EXIT, INT and TERM; never
# with `git checkout`, which would drop a developer's own edits elsewhere
# in the tree). Every pattern of the row must then appear in the log, with
# `{line}` standing for the first changed line of the mutated file. Exits
# 1 if any row's numstat differed, its command passed or a pattern was
# missing, naming each such row.
set -uo pipefail

table="$(cd "$(dirname "$0")" && pwd)/mutants.tsv"
cd "$(git rev-parse --show-toplevel)" || exit 2
out=target/mutants
saved=$out/saved

# Every table error, before anything is edited.
errors=$(awk -F'\t' '
    /^#/ || /^$/ { next }
    NF < 6 { print "mutants.tsv:" NR ": " NF " columns, need 6 or more"; next }
    {
        for (i = 1; i <= NF; i++)
            if ($i == "") print "mutants.tsv:" NR ": column " i " is empty"
        if ($1 !~ /^[a-z0-9-]+$/) print "mutants.tsv:" NR ": name \"" $1 "\" is not [a-z0-9-]+"
        if (seen[$1]++) print "mutants.tsv:" NR ": name \"" $1 "\" is used twice"
        if ($4 !~ /^\+[0-9]+ -[0-9]+$/) print "mutants.tsv:" NR ": numstat \"" $4 "\" is not +A -D"
    }' "$table")
rows=()
declare -A checked
while IFS= read -r row; do
    [[ -z $row || $row == \#* ]] && continue
    rows+=("$row")
    IFS=$'\t' read -r _ file _ <<<"$row"
    [[ -n ${checked[$file]:-} ]] && continue
    checked[$file]=1
    if ! git cat-file -e "HEAD:$file" 2>/dev/null; then
        errors+=$'\n'"$file: not in HEAD"
    elif ! git diff --no-ext-diff --quiet HEAD -- "$file"; then
        errors+=$'\n'"$file: differs from HEAD; commit or stash it first"
    fi
done <"$table"
for binary in tests/*.rs crates/*/tests/*.rs; do
    stem=$(basename "$binary" .rs)
    grep -qE -- "--test $stem([[:space:]:]|$)" "$table" ||
        errors+=$'\n'"$binary: no row runs --test $stem, and no comment gives a reason"
done
errors=$(sed '/^$/d' <<<"$errors")
if [[ -n $errors ]]; then
    printf 'mutants.sh: nothing was edited:\n%s\n' "$errors" >&2
    exit 2
fi

mkdir -p "$out"
current=""
restore() {
    if [[ -n $current ]]; then
        cp "$saved" "$current"
        current=""
    fi
}
trap restore EXIT
trap 'restore; exit 130' INT
trap 'restore; exit 143' TERM

failed=()
for row in "${rows[@]}"; do
    IFS=$'\t' read -r -a col <<<"$row"
    name=${col[0]} file=${col[1]} expr=${col[2]} numstat=${col[3]} cmd=${col[4]}
    log=$out/$name.log
    start=$SECONDS
    cp "$file" "$saved"
    current=$file
    sed -i -e "$expr" "$file" 2>"$log"
    got=$(git diff --no-ext-diff --numstat HEAD -- "$file" | awk '{ print "+" $1 " -" $2 }')
    line=$(git diff --no-ext-diff -U0 HEAD -- "$file" | sed -n 's/^@@ -[0-9,]* +\([0-9]*\).*/\1/p' | head -n 1)
    reason=""
    if [[ $got != "$numstat" ]]; then
        restore
        reason="its edit's numstat is '${got:-none}', the table's '$numstat'"
    else
        bash -c "$cmd" >"$log" 2>&1
        status=$?
        restore
        missing=()
        for pattern in "${col[@]:5}"; do
            pattern=${pattern//\{line\}/$line}
            grep -q -- "$pattern" "$log" || missing+=("$pattern")
        done
        if ((status == 0)); then
            reason="\`$cmd\` passed with $file mutated"
        elif ((${#missing[@]})); then
            reason="$log lacks$(printf " '%s'" "${missing[@]}")"
        fi
    fi
    if [[ -z $reason ]]; then
        echo "ok   $name ($((SECONDS - start)) s)"
        continue
    fi
    failed+=("$name: $reason")
    echo "FAIL $name ($((SECONDS - start)) s): $reason; the end of $log:"
    tail -n 20 "$log"
done

if ((${#failed[@]})); then
    echo
    echo "mutants.sh: ${#failed[@]} of ${#rows[@]} rows did not bite:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "mutants.sh: all ${#rows[@]} rows bite"
