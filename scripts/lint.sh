#!/usr/bin/env bash
# Library lint pass: clippy on the workspace's library and binary targets
# (not the offline compat stubs, which `--no-deps` also skips as
# dependencies) with the library-only deny list and `clippy.toml`'s bans.
# `--lib` skips `cfg(test)` code, so unit tests may unwrap.
#
#   scripts/lint.sh            lint the workspace; must report nothing
#   scripts/lint.sh fixtures   every `//~ lint::id …` marker in
#                              `lint_fixtures/` must be reported, as an
#                              error, on its line
set -euo pipefail
cd "$(dirname "$0")/.."

LIB_LINTS=(
    -D warnings
    -D clippy::dbg_macro -D clippy::todo -D clippy::print_stdout
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
    -D clippy::unreachable -D clippy::unimplemented
    -D clippy::disallowed_types -D clippy::disallowed_methods
)

case "${1:-workspace}" in
workspace)
    exec cargo clippy --workspace --lib --bins --no-deps \
        --exclude criterion --exclude proptest --exclude rand \
        --exclude serde --exclude serde_derive --exclude serde_json \
        -- "${LIB_LINTS[@]}"
    ;;
fixtures)
    # Clippy fails on the fixtures by design; only the comparison decides.
    found=$({ cargo clippy --offline --quiet --manifest-path lint_fixtures/Cargo.toml \
        --message-format=json -- "${LIB_LINTS[@]}" 2>/dev/null || true; } |
        jq -r 'select(.reason == "compiler-message") | .message
            | select(.level == "error" and .code != null)
            | .code.code as $code | .spans[] | select(.is_primary)
            | "\(.file_name):\(.line_start) \($code)"' | sort -u)
    missing=0
    while IFS=: read -r file line rest; do
        for code in ${rest#*//~}; do
            if ! grep -qxF "$file:$line $code" <<<"$found"; then
                echo "lint_fixtures/$file:$line: expected error $code" >&2
                missing=1
            fi
        done
    done < <(cd lint_fixtures && grep -n '//~' src/*.rs)
    [ "$missing" = 0 ] && echo "every seeded violation is reported"
    exit "$missing"
    ;;
*)
    echo "usage: $0 [workspace|fixtures]" >&2
    exit 2
    ;;
esac
