#!/usr/bin/env bash
# Documentation consistency gate (CI step; run any time with
# scripts/doc_check.sh). Five checks, all derived from the code so the
# docs cannot silently go stale:
#
#   1. every nvmpi subcommand (the Cmd.info names in bin/nvmpi.ml) is
#      mentioned in README.md or docs/;
#   2. every registered counter prefix (the first dotted component of
#      counter names in lib/) has a catalogue entry in docs/METRICS.md;
#   3. every intra-repo markdown link in the curated docs resolves
#      (anchors stripped; http(s)/mailto links skipped);
#   4. every `dune exec <dir>/<name>.exe` in the curated docs names an
#      executable declared in <dir>/dune (`(executable (name <name>))`
#      or `(executables (names ... <name> ...))`);
#   5. every nvmpi command line in the curated docs and in
#      .claude/skills/verify/SKILL.md (`` `nvmpi <word>`` or
#      `nvmpi.exe -- <word>`) names a subcommand,
#      and every --flag on such a line is declared by an `info [...]` in
#      bin/nvmpi.ml, so a retired subcommand or flag cannot linger.
#      ROADMAP.md is exempt: it names commands that do not exist yet.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() { echo "doc_check: $*" >&2; fail=1; }

# --- 1. subcommands ---------------------------------------------------

subcommands=$(grep -oE 'Cmd\.info "[a-z]+"' bin/nvmpi.ml | cut -d'"' -f2 \
              | grep -v '^nvmpi$' | sort -u)
[ -n "$subcommands" ] || { echo "doc_check: no subcommands found in bin/nvmpi.ml" >&2; exit 2; }
for sub in $subcommands; do
  if ! grep -rqw "$sub" README.md docs/; then
    err "subcommand 'nvmpi $sub' is not mentioned in README.md or docs/"
  fi
done

# --- 2. counter prefixes ----------------------------------------------

# Counter names are dotted lowercase string literals at the registration
# / increment idioms (Metrics.counter, Metrics.incr, Metrics.handle,
# Machine.count, the staged Machine.bump/Machine.cell, and the local
# `c "..."` alias). Dynamic names (repr.<name>.loads, built with
# sprintf) still expose their prefix in the format literal.
prefixes=$(grep -rhE 'Metrics\.(counter|incr|handle)|Machine\.(count|bump|cell)| c "[a-z]' \
             --include='*.ml' lib/ \
           | grep -oE '"[a-z][a-z0-9_-]*\.[a-z0-9_.%<>-]*"' \
           | cut -d'"' -f2 | cut -d. -f1 | sort -u)
[ -n "$prefixes" ] || { echo "doc_check: no counter prefixes found in lib/" >&2; exit 2; }
for prefix in $prefixes; do
  if ! grep -qE "\`?${prefix}\." docs/METRICS.md; then
    err "counter prefix '${prefix}.*' has no entry in docs/METRICS.md"
  fi
done

# --- 3. markdown links ------------------------------------------------

docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md $(ls docs/*.md)"
for doc in $docs; do
  [ -f "$doc" ] || continue
  # Extract (target) of every [text](target) / ![alt](target).
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    case "$path" in
      /*) resolved=".$path" ;;
      *)  resolved="$(dirname "$doc")/$path" ;;
    esac
    if [ ! -e "$resolved" ]; then
      err "$doc links to '$target' but '$resolved' does not exist"
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- 4. dune exec targets ---------------------------------------------

execs=0
for target in $(grep -ohE 'dune exec [A-Za-z0-9_./-]+\.exe' $docs \
                | cut -d' ' -f3 | sort -u); do
  execs=$((execs + 1))
  dir=$(dirname "$target")
  name=$(basename "$target" .exe)
  if [ ! -f "$dir/dune" ] \
     || ! tr '\n' ' ' < "$dir/dune" \
          | grep -oE '\(executables?[[:space:]]+\(names?[[:space:]]+[^)]*\)' \
          | sed -E 's/^\(executables?[[:space:]]+\(names?//; s/\)$//' \
          | tr -s ' ' '\n' | grep -qx "$name"; then
    err "docs run 'dune exec $target' but $dir/dune declares no executable '$name'"
  fi
done

# --- 5. nvmpi command lines ------------------------------------------

flags=$(grep -oE 'info[[:space:]]*\[[^]]*\]' bin/nvmpi.ml \
        | grep -oE '"[a-z][a-z0-9-]+"' | tr -d '"' | sort -u)
[ -n "$flags" ] || { echo "doc_check: no flags found in bin/nvmpi.ml" >&2; exit 2; }
cmdlines=0
cmd_re='(`nvmpi|nvmpi\.exe --) [a-z][a-z-]*'
for doc in ${docs/ROADMAP.md/} .claude/skills/verify/SKILL.md; do
  while IFS=: read -r line text; do
    cmdlines=$((cmdlines + 1))
    for sub in $(grep -oE "$cmd_re" <<<"$text" | awk '{print $NF}'); do
      grep -qx "$sub" <<<"$subcommands" \
        || err "$doc:$line runs 'nvmpi $sub', which is not a subcommand"
    done
    for flag in $(grep -oE '(^|[^a-z0-9-])--[a-z][a-z0-9-]*' <<<"$text" \
                  | sed -E 's/^.*--//' | sort -u); do
      grep -qx "$flag" <<<"$flags" \
        || err "$doc:$line passes '--$flag', which bin/nvmpi.ml does not declare"
    done
  done < <(grep -nE "$cmd_re" "$doc" || true)
done

if [ "$fail" -ne 0 ]; then
  echo "doc_check: FAIL" >&2
  exit 1
fi
echo "doc_check: PASS ($(echo "$subcommands" | wc -w | tr -d ' ') subcommands, $(echo "$prefixes" | wc -w | tr -d ' ') counter prefixes, links OK, $execs dune exec targets, $cmdlines nvmpi command lines)"
