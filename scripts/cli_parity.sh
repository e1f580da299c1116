#!/usr/bin/env bash
# Compare two `weblab` binaries on `weblab run` and `weblab replay`: the
# same invocations, in two fresh directories, must give byte-identical
# stdout, stderr, exit codes, output files and store directories.
#
#   bash scripts/cli_parity.sh OLD_WEBLAB NEW_WEBLAB
#
# Covered: a plain run, `--live`, `--store`, both `--store` refusals (an
# execution the store holds, a finished run), a `flaky:3` abort followed by
# `--resume --retries 3`, `--store` on an input with no labelled resource,
# the replay smoke of scripts/ci.sh, and a replay of a run that called the
# `flaky` fault injector. `store.lock` files are left out. Prints the
# differences, if any, and exits non-zero on them.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
old="$(realpath "$1")"
new="$(realpath "$2")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

scenario() {
    local weblab=$1
    step() {
        local name=$1
        shift
        set +e
        "$weblab" "$@" > "$name.out" 2> "$name.err"
        echo $? > "$name.code"
        set -e
    }
    cp "$root/data/sample_corpus.xml" corpus.xml
    printf '<Resource><NativeContent id="n">plain text</NativeContent></Resource>\n' \
        > unlabelled.xml
    local pipeline=Normaliser,LanguageExtractor,Translator
    step plain run corpus.xml "$pipeline"
    step live run corpus.xml "$pipeline" --live
    step store run corpus.xml "$pipeline" --store st -o store.xml
    step held run corpus.xml "$pipeline" --store st
    step finished run corpus.xml "$pipeline" --store st --resume
    step abort run corpus.xml Normaliser,flaky:3,LanguageExtractor --store ab
    cp -r ab aborted
    step resume run corpus.xml Normaliser,flaky:3,LanguageExtractor --store ab --resume \
        --retries 3 -o resumed.xml
    step unlabelled run unlabelled.xml Normaliser --store un -o unlabelled-out.xml
    step prior run corpus.xml "$pipeline",Tokeniser --store rp -o prior.xml
    sed 's/the language of peace/the language of war/' corpus.xml > changed.xml
    step replay replay changed.xml --from rp --exec corpus --changed weblab://src/1 \
        --proof exact -o replayed.xml
    step flaky-prior run corpus.xml Normaliser,flaky:0,LanguageExtractor --store fl
    step flaky-replay replay changed.xml --from fl --exec corpus --changed weblab://src/1 \
        -o flaky-replayed.xml
    find . -name store.lock -delete
}

for side in old new; do
    mkdir "$work/$side"
    (cd "$work/$side" && scenario "${!side}")
done
if diff -r "$work/old" "$work/new"; then
    echo "cli parity: no differences ($(find "$work/new" -type f | wc -l) files compared)"
else
    echo "cli parity: the binaries differ" >&2
    exit 1
fi
