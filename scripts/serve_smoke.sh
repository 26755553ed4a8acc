#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the simulation service on
# the real binary. Starts pnserve with bearer auth, requires a
# submission body over 1 MiB to be refused with 413, submits a study,
# waits for completion, then submits the identical study again and
# requires the second answer to be a whole-study cache hit with zero
# simulated runs and byte-identical outcome downloads in every format.
# Then submits the study with a new seed and requires the run store to
# answer some of its cells' cloud-free runs, then with one more load
# level and requires every old cell to come from the cell cache and the
# extended study's resubmission to be a zero-work hit. Finishes by
# exercising the graceful drain path with SIGTERM. This is
# the process-level twin of internal/serve's -race suite — same
# contract, but with a real listener, real curl clients and a real
# signal.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
port="${SERVE_PORT:-18474}"
url="http://127.0.0.1:${port}"
token="smoke-secret"
auth=(-H "Authorization: Bearer ${token}")
# Paired seeds (repetition r has the same seed in every cell) let a cell
# keep its seeds, and so its cached records, when a load level is added.
recipe='{"scenario":"stress-clouds","duration":12,"storage":"ideal:0.047,supercap:0.047","util":"1,0.6","reps":4,"seed":23,"paired":true,"bins":32,"hist_lo":4,"hist_hi":6}'

pids=()
cleanup() {
    local p
    for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

echo "serve_smoke: building pnserve"
go build -o "$work/pnserve" ./cmd/pnserve

echo "serve_smoke: starting service on $url"
"$work/pnserve" -addr "127.0.0.1:${port}" -token "$token" -v \
    >>"$work/serve.log" 2>&1 &
serve_pid=$!
pids+=("$serve_pid")

for _ in $(seq 1 100); do
    curl -sf --max-time 2 "${auth[@]}" "$url/v1/cache" >/dev/null 2>&1 && break
    sleep 0.1
done
if ! curl -sf --max-time 2 "${auth[@]}" "$url/v1/cache" >/dev/null; then
    echo "serve_smoke: service never answered on $url" >&2
    cat "$work/serve.log" >&2
    exit 1
fi

echo "serve_smoke: unauthenticated requests must be refused"
code="$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 "$url/v1/cache")"
if [ "$code" != "401" ]; then
    echo "serve_smoke: unauthenticated request got HTTP $code, want 401" >&2
    exit 1
fi

echo "serve_smoke: a submission body over 1 MiB must be refused whole"
# A valid recipe padded with whitespace past the limit: cut at 1 MiB it
# would still parse, so only a whole-body refusal answers 413.
{ printf '%s' "$recipe"; head -c $((1 << 20)) /dev/zero | tr '\0' ' '; } >"$work/oversized.json"
code="$(curl -s -o /dev/null -w '%{http_code}' --max-time 10 "${auth[@]}" \
    --data-binary @"$work/oversized.json" "$url/v1/jobs")"
if [ "$code" != "413" ]; then
    echo "serve_smoke: FAIL — $(wc -c <"$work/oversized.json")-byte submission got HTTP $code, want 413" >&2
    exit 1
fi

field() { sed -n "s/.*\"$1\": \"\\([^\"]*\\)\".*/\\1/p" | head -n 1; }
count() { sed -n "s/.*\"$1\": \\([0-9]*\\).*/\\1/p" | head -n 1; }

# await JOB: poll until the job is done, failing the smoke otherwise.
await() {
    local state=""
    for _ in $(seq 1 600); do
        state="$(curl -sf "${auth[@]}" "$url/v1/jobs/$1" | field state || true)"
        [ "$state" = "done" ] && return 0
        [ "$state" = "failed" ] && break
        sleep 0.1
    done
    echo "serve_smoke: job $1 ended in state '${state:-?}'" >&2
    curl -s "${auth[@]}" "$url/v1/jobs/$1" >&2 || true
    cat "$work/serve.log" >&2
    exit 1
}

# run_store_hits: the run store's hit count from GET /v1/cache.
run_store_hits() {
    curl -sf "${auth[@]}" "$url/v1/cache" | tr -d ' \n' |
        sed -n 's/.*"run_store":{"hits":\([0-9]*\).*/\1/p'
}

echo "serve_smoke: submitting study (cold)"
curl -sf "${auth[@]}" -d "$recipe" "$url/v1/jobs" >"$work/cold-submit.json"
job="$(field id <"$work/cold-submit.json")"
if [ -z "$job" ]; then
    echo "serve_smoke: no job id in submission response:" >&2
    cat "$work/cold-submit.json" >&2
    exit 1
fi

echo "serve_smoke: waiting for $job"
await "$job"

for fmt in json cells-csv runs-csv; do
    curl -sf "${auth[@]}" "$url/v1/jobs/$job/outcome?format=$fmt" >"$work/cold.$fmt"
done

echo "serve_smoke: resubmitting the identical study (must be a cache hit)"
curl -sf "${auth[@]}" -d "$recipe" "$url/v1/jobs" >"$work/hit-submit.json"
hit="$(field id <"$work/hit-submit.json")"
if ! grep -q '"cache_hit": true' "$work/hit-submit.json" ||
   ! grep -q '"simulated_runs": 0' "$work/hit-submit.json" ||
   ! grep -q '"state": "done"' "$work/hit-submit.json"; then
    echo "serve_smoke: FAIL — resubmission was not an instant zero-work cache hit:" >&2
    cat "$work/hit-submit.json" >&2
    exit 1
fi

for fmt in json cells-csv runs-csv; do
    curl -sf "${auth[@]}" "$url/v1/jobs/$hit/outcome?format=$fmt" >"$work/hit.$fmt"
    if ! cmp -s "$work/cold.$fmt" "$work/hit.$fmt"; then
        echo "serve_smoke: FAIL — $fmt outcome of the cache hit differs from the cold run" >&2
        exit 1
    fi
done
echo "serve_smoke: cache hit is byte-identical to the cold run in all formats"

echo "serve_smoke: resubmitting the study with a new seed (must take kept runs)"
hits0="$(run_store_hits)"
curl -sf "${auth[@]}" -d "${recipe/\"seed\":23/\"seed\":24}" "$url/v1/jobs" >"$work/fresh-submit.json"
fresh="$(field id <"$work/fresh-submit.json")"
await "$fresh"
hits1="$(run_store_hits)"
if [ -z "$hits0" ] || [ -z "$hits1" ] || [ "$hits1" -le "$hits0" ]; then
    echo "serve_smoke: FAIL — new-seed study took no run from the run store (hits ${hits0:-?} -> ${hits1:-?})" >&2
    curl -s "${auth[@]}" "$url/v1/cache" >&2 || true
    exit 1
fi
echo "serve_smoke: new-seed study took kept runs (run-store hits $hits0 -> $hits1)"

echo "serve_smoke: resubmitting the study with one more load level (old cells from the cell cache)"
extended="${recipe/\"util\":\"1,0.6\"/\"util\":\"1,0.6,0.3\"}"
curl -sf "${auth[@]}" -d "$extended" "$url/v1/jobs" >"$work/partial-submit.json"
partial="$(field id <"$work/partial-submit.json")"
await "$partial"
curl -sf "${auth[@]}" "$url/v1/jobs/$partial" >"$work/partial.json"
cells="$(count total_cells <"$work/cold-submit.json")"
want=$((cells / 2 * 3)) # two storage levels × three loads
got="$(count total_cells <"$work/partial.json")"
cached="$(count cached_cells <"$work/partial.json")"
if [ -z "$cells" ] || [ "$got" != "$want" ] || [ "$cached" != "$cells" ]; then
    echo "serve_smoke: FAIL — extended study cached $cached of $got cells, want $cells of $want:" >&2
    cat "$work/partial.json" >&2
    exit 1
fi
curl -sf "${auth[@]}" -d "$extended" "$url/v1/jobs" >"$work/partial-hit.json"
if ! grep -q '"cache_hit": true' "$work/partial-hit.json" ||
   ! grep -q '"simulated_runs": 0' "$work/partial-hit.json" ||
   ! grep -q '"state": "done"' "$work/partial-hit.json"; then
    echo "serve_smoke: FAIL — resubmitted extended study was not an instant zero-work cache hit:" >&2
    cat "$work/partial-hit.json" >&2
    exit 1
fi
echo "serve_smoke: extended study took all $cells old cells from the cell cache; its resubmission is a hit"

echo "serve_smoke: draining with SIGTERM"
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve_smoke: service did not exit cleanly on SIGTERM" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
if ! grep -q "drained" "$work/serve.log"; then
    echo "serve_smoke: no drain confirmation in the service log" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
echo "serve_smoke: PASS — oversized body refused, cold run, zero-work byte-identical cache hit, run-store hit, partial cell-cache hit, graceful drain"
