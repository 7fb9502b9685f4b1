#!/usr/bin/env python3
"""Reference client for the `sdmpeb_cli serve` length-prefixed protocol.

Speaks the wire format of src/serve/protocol.hpp: every frame is
[length u32 LE][payload]; request payloads are
  b"SRVQ" + id u64 + priority i32 + deadline_ms u32 + d,h,w u32 + floats
and response payloads are
  b"SRVR" + id u64 + status u32 + (volume | error string).

With --selftest the script trains a tiny checkpoint, then drives a serve
process through the contracts worth pinning from outside the binary:
well-formed frames complete, a malformed frame is rejected without killing
the stream, SIGTERM drains every accepted request before a clean exit, and
a traced run (--trace/--metrics) keeps stdout a pure frame stream that ends
in a clean EOF. Prints SERVE_PROTOCOL_OK on success (consumed by ctest /
CI).
"""

import argparse
import os
import shutil
import signal
import struct
import subprocess
import sys
import time

STATUS_NAMES = {
    0: "ok",
    1: "rejected_full",
    2: "rejected_draining",
    3: "invalid",
    4: "expired",
    5: "shed",
    6: "error",
}


def encode_request(req_id, dims, values, priority=0, deadline_ms=0):
    d, h, w = dims
    payload = b"SRVQ" + struct.pack(
        "<QiIIII", req_id, priority, deadline_ms, d, h, w
    )
    payload += struct.pack("<%df" % (d * h * w), *values)
    return struct.pack("<I", len(payload)) + payload


def read_exact(stream, n):
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            return None  # EOF
        buf += chunk
    return buf


def read_response(stream):
    header = read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    payload = read_exact(stream, length)
    if payload is None:
        raise RuntimeError("stream truncated mid-frame")
    if payload[:4] != b"SRVR":
        raise RuntimeError("bad response magic %r" % payload[:4])
    resp_id, status = struct.unpack("<QI", payload[4:16])
    body = payload[16:]
    if status == 0:
        d, h, w = struct.unpack("<III", body[:12])
        values = struct.unpack("<%df" % (d * h * w), body[12:])
        return {"id": resp_id, "status": status, "volume": ((d, h, w), values)}
    return {"id": resp_id, "status": status, "error": body.decode("utf-8", "replace")}


def read_all(stream):
    """Every response frame up to EOF; a torn or foreign frame raises."""
    responses = []
    while (resp := read_response(stream)) is not None:
        responses.append(resp)
    return responses


def require(cond, message):
    if not cond:
        print("FAIL: %s" % message, file=sys.stderr)
        sys.exit(1)


def spawn_serve(cli, ckpt, shape, extra_args=()):
    return subprocess.Popen(
        [
            cli, "serve", "--model", "sdm", "--scale", "tiny",
            "--ckpt", ckpt, "--shape", "%dx%dx%d" % shape,
            "--deadline-ms", "60000", *extra_args,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )


def selftest(cli, work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    ckpt = os.path.join(work_dir, "tiny.ckpt")
    print("training a tiny checkpoint ...")
    subprocess.run(
        [
            cli, "train", "--scale", "tiny", "--clips", "3",
            "--bake-seconds", "3", "--epochs", "1", "--out", ckpt,
        ],
        check=True,
    )

    dims = (2, 8, 8)
    volume = [0.25] * (dims[0] * dims[1] * dims[2])

    # --- Contract 1 + 2: requests complete; a malformed frame is rejected
    # without killing the stream.
    proc = spawn_serve(cli, ckpt, dims)
    for i in range(3):
        proc.stdin.write(encode_request(100 + i, dims, volume))
    bad = b"JUNK" + b"\x00" * 20  # right framing, wrong magic
    proc.stdin.write(struct.pack("<I", len(bad)) + bad)
    for i in range(3, 5):
        proc.stdin.write(encode_request(100 + i, dims, volume))
    proc.stdin.flush()
    proc.stdin.close()  # EOF -> drain

    responses = read_all(proc.stdout)
    require(proc.wait() == 0, "serve exited non-zero after EOF drain")
    require(len(responses) == 6, "want 6 responses, got %d" % len(responses))
    by_id = {}
    for resp in responses:
        by_id.setdefault(resp["id"], []).append(resp)
    require(
        all(len(v) == 1 for v in by_id.values()),
        "duplicated response ids: %r" % by_id,
    )
    for i in range(5):
        resp = by_id[100 + i][0]
        require(
            resp["status"] == 0,
            "request %d: %s" % (100 + i, STATUS_NAMES.get(resp["status"])),
        )
        require(resp["volume"][0] == dims, "response volume shape mismatch")
    malformed = by_id[0][0]
    require(malformed["status"] == 3, "malformed frame not flagged invalid")
    require("magic" in malformed["error"], "rejection reason missing")
    print("frames + malformed rejection: ok")

    # --- Contract 3: SIGTERM drains every accepted request, exits 0.
    proc = spawn_serve(cli, ckpt, dims)
    for i in range(4):
        proc.stdin.write(encode_request(200 + i, dims, volume))
    proc.stdin.flush()
    # Let the server ingest the frames so the signal lands with real work
    # admitted (signalling an idle server would not test the drain path).
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    responses = read_all(proc.stdout)
    require(proc.wait() == 0, "serve exited non-zero after SIGTERM drain")
    ids = sorted(r["id"] for r in responses)
    require(len(ids) == len(set(ids)), "duplicated responses across drain")
    require(
        len(ids) == 4,
        "accepted work lost across SIGTERM drain: responses for %r" % ids,
    )
    for resp in responses:
        require(
            resp["status"] in (0, 2, 4, 5),
            "unexpected drain status %s" % STATUS_NAMES.get(resp["status"]),
        )
    print("SIGTERM drain: ok (%d responses)" % len(responses))

    # --- Contract 4: with tracing on, the exit-time trace and metrics dumps
    # go to their files, never into the frame stream on stdout.
    trace = os.path.join(work_dir, "serve_trace.json")
    metrics = os.path.join(work_dir, "serve_metrics.csv")
    proc = spawn_serve(cli, ckpt, dims,
                       ("--trace", trace, "--metrics", metrics))
    for i in range(3):
        proc.stdin.write(encode_request(300 + i, dims, volume))
    proc.stdin.close()
    responses = read_all(proc.stdout)  # raises on bytes after the last frame
    require(proc.wait() == 0, "traced serve exited non-zero")
    require(
        sorted(r["id"] for r in responses) == [300, 301, 302]
        and all(r["status"] == 0 for r in responses),
        "traced serve responses: %r"
        % [(r["id"], STATUS_NAMES.get(r["status"])) for r in responses],
    )
    require(os.path.isfile(trace) and os.path.isfile(metrics),
            "traced serve wrote no trace/metrics files")
    print("traced frame stream: ok")
    print("SERVE_PROTOCOL_OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to sdmpeb_cli")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest(args.cli, args.work_dir)
    else:
        parser.error("only --selftest is implemented")


if __name__ == "__main__":
    main()
