"""Command-line interface.

Subcommands: generate (simulated captures), postprocess (whitening
pipelines), test (statistical battery), calibrate (operating current),
speed (array read-rate estimate), bench (throughput measurement).

Exit codes: 0 success (and battery Pass), 1 usage error or out of memory,
2 I/O error, 3 battery Fail.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import bitio, stats
from .codes import lookup_code
from .source import (
    PRESETS,
    CalibrationError,
    SourceConfig,
    calibrate_current,
    generate_stream,
    load_switching_models,
    switching_probability,
)
from .whiten import (
    FEEDBACK_INJECTION,
    OUTPUT_XOR_INJECTION,
    EccStage,
    LfsrSpec,
    LfsrStage,
    PipelineSpec,
    RejectionStage,
    run_pipeline,
)

# How closely a preset's calibrated current must hit the preset's probability.
PRESET_CALIBRATION_TOL = 1e-12

# The write pulse of calibrate and of generate --current when --t-write is absent (ns).
DEFAULT_T_WRITE_NS = 30.0

# Published throughput reference points for the speed table (MHz).
SPEED_REFERENCES = (
    ("rtn-reference-a", 2.0),
    ("rtn-reference-b", 0.2),
)


class UsageError(Exception):
    exit_code = 1


class CliIoError(Exception):
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_taps(text: str) -> LfsrSpec:
    try:
        taps = tuple(int(t) for t in text.split(","))
        return LfsrSpec(taps)
    except ValueError as exc:
        raise UsageError(f"bad tap list {text!r}: {exc}") from None


def _parse_code(text: str):
    try:
        n, k, t = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"bad code spec {text!r}: expected N,K,T") from None
    try:
        return lookup_code(n, k, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_stages(args) -> PipelineSpec:
    """The stages the stage flags name, in order.

    --lfsr-seed and --injection are refused without an --lfsr stage to read
    them; an absent one is set on args to the stage's default, which is what
    the manifest records.
    """
    if not args.stages:
        raise UsageError("no pipeline stages given (use --rejection, --lfsr, --ecc)")
    if not any(kind == "lfsr" for kind, _ in args.stages):
        for flag, value in (("--lfsr-seed", args.lfsr_seed), ("--injection", args.injection)):
            if value is not None:
                raise UsageError(f"{flag} applies to --lfsr stages only, and no --lfsr is given")
    args.lfsr_seed = LfsrStage.seed if args.lfsr_seed is None else args.lfsr_seed
    args.injection = args.injection or LfsrStage.injection
    built = []
    for kind, value in args.stages:
        if kind == "rejection":
            built.append(RejectionStage())
        elif kind == "lfsr":
            spec = _parse_taps(value)
            try:
                built.append(LfsrStage(spec, seed=args.lfsr_seed, injection=args.injection))
            except ValueError as exc:
                raise UsageError(f"--lfsr-seed: {exc}") from None
        else:
            built.append(EccStage(_parse_code(value)))
    return PipelineSpec(tuple(built))


def _read_input(args) -> tuple[np.ndarray, str, str]:
    """The input's bits, its encoding and the SHA-256 of its bytes.

    The file is read once; the digest is what the sidecar is checked
    against and what the manifest of the result records as input_sha256.
    The encoding is never guessed: auto takes the one the sidecar names, and
    a file without a sidecar that names packed or ascii is a usage error.
    A sidecar read for the encoding being read also bounds --bits: a count
    past its output_bits is an I/O error, as on any file too short.
    """
    path, encoding, bit_count = args.input, args.input_encoding, args.bits
    if bit_count is not None and bit_count < 0:
        raise UsageError("--bits must be a non-negative integer")
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise CliIoError(f"cannot read {path}: {exc.strerror or exc}") from None
    sha = bitio.sha256_hex(payload)
    manifest = None
    if encoding == "auto" or (encoding == bitio.PACKED and bit_count is None):
        manifest = bitio.manifest_for_file(path)
        if manifest is not None and manifest.output_sha256 != sha:
            raise CliIoError(
                f"{path} does not match the output_sha256 of {bitio.manifest_path_for(path)}"
            )
    if encoding == "auto":
        if manifest is None or manifest.encoding not in (bitio.PACKED, bitio.ASCII):
            raise UsageError(f"no sidecar names the encoding of {path}; "
                             "pass --input-encoding packed or ascii")
        encoding = manifest.encoding
    if args.bit_order is not None and encoding == bitio.ASCII:
        raise UsageError(f"--bit-order applies to packed input only, and {path} is read as ascii")
    if manifest is not None and manifest.encoding == encoding:
        # the sidecar's count is the file's length; past it lies only padding
        if bit_count is None:
            bit_count = manifest.output_bits
        elif bit_count > manifest.output_bits:
            raise CliIoError(f"cannot read {path}: bit count {bit_count} outside the "
                             f"0..{manifest.output_bits} bits in the file")
    try:
        bits = bitio.decode_bits(payload, encoding, bit_count, args.bit_order or bitio.MSB_FIRST)
    except ValueError as exc:
        raise CliIoError(f"cannot read {path}: {exc}") from None
    return bits, encoding, sha


def _write_artifact(path, payload: bytes, argv, command, params, *,
                    bit_count=0, encoding="text", input_info=None) -> None:
    """Write payload to path and its manifest next to it; when the manifest
    cannot be written, path is removed again."""
    manifest = bitio.RunManifest(
        command=command,
        argv=list(argv),
        params=params,
        output_path=path,
        output_sha256=bitio.sha256_hex(payload),
        output_bits=bit_count,
        encoding=encoding,
        input_path=input_info[0] if input_info else None,
        input_sha256=input_info[1] if input_info else None,
        tool_version=__version__,
    )
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliIoError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        bitio.write_manifest(manifest)
    except OSError as exc:
        # a file that no manifest describes is not left behind
        try:
            os.remove(path)
        except OSError:
            pass  # the manifest's error is the one to report
        raise CliIoError(
            f"cannot write {bitio.manifest_path_for(path)}: {exc.strerror or exc}"
        ) from None


def _resolve_source(args) -> tuple[SourceConfig, dict]:
    """Build the SourceConfig that the source flags name; returns (config, params).

    Every source rule is kept here: a non-negative --seed, exactly one source
    flag, --t-write only with --current, and --model-config only with a
    source that reads the switching model. The messages name only the source
    flags the command declares (args.source_kinds). Only the text is parsed:
    SourceConfig judges the values.
    """
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    flags = [f"--{k}" for k in args.source_kinds]
    if len(args.sources or ()) != 1:
        raise UsageError(f"choose exactly one source: {', '.join(flags[:-1])} or {flags[-1]}")
    (kind, value), t_write = args.sources[0], args.t_write
    if t_write is not None and kind != "current":
        raise UsageError(f"--t-write applies to --current only, not to --{kind}")
    if args.model_config is not None and kind not in ("preset", "current"):
        readers = " and ".join(f for f in flags if f in ("--preset", "--current"))
        raise UsageError(f"--model-config applies to {readers} only, not to --{kind}")
    if kind == "bernoulli":
        p = _parse_float(value, f"{kind} source: bad probability")
        fields, params = {"p": p}, {"source": f"bernoulli:{p:g}"}
    elif kind == "markov":
        parts = value.split(",")
        if len(parts) != 2:
            raise UsageError("markov source expects P,RHO")
        p = _parse_float(parts[0], f"{kind} source: bad probability")
        rho = _parse_float(parts[1], "bad autocorrelation")
        fields, params = {"p": p, "rho": rho}, {"source": f"markov:{p:g},{rho:g}"}
    else:
        # a preset's calibrated current, or an explicit one, through the switching model
        if kind == "preset":
            if value not in PRESETS:
                raise UsageError(
                    f"unknown preset {value!r}; available: {', '.join(sorted(PRESETS))}")
            p, t_write = PRESETS[value]
            params = {"source": f"preset:{value}", "p": p}
        else:
            current = _parse_float(value, "bad current")
            t_write = DEFAULT_T_WRITE_NS if t_write is None else t_write
            params = {"source": f"mtj:{current:g}uA"}
        model = _load_model(args.model_config, t_write)
        if kind == "preset":
            try:
                current = calibrate_current(model, target=p, tol=PRESET_CALIBRATION_TOL)
                params["current_ua"] = current
            except CalibrationError as exc:
                raise UsageError(f"preset {value}: {exc}") from None
        kind, fields = "mtj", {"model": model, "current_ua": current}
        params["t_write_ns"] = t_write
    try:
        cfg = SourceConfig(kind, args.seed, args.bits, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg, {**params, "seed": args.seed}


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{what} {text!r}") from None


def _load_model(config_path, t_write):
    try:
        models = load_switching_models(config_path)
    except OSError as exc:
        raise CliIoError(f"cannot read model config: {exc}") from None
    except ValueError as exc:
        raise CliIoError(str(exc)) from None
    if t_write not in models:
        avail = ", ".join(f"{t:g}" for t in sorted(models))
        raise UsageError(f"no switching model for t_write={t_write:g} ns (have: {avail})")
    return models[t_write]


def cmd_generate(args, argv) -> int:
    if args.bits < 0:
        raise UsageError("--bits must be a non-negative integer")
    cfg, params = _resolve_source(args)
    bits = generate_stream(cfg)
    params["bits"] = int(bits.size)
    _write_artifact(args.output, bitio.encode_bits(bits, args.encoding), argv, "generate",
                    params, bit_count=int(bits.size), encoding=args.encoding)
    ones = float(bits.mean()) if bits.size else 0.0
    print(f"generate: wrote {bits.size} bits to {args.output} (ones fraction {ones:.4f})")
    return 0


def cmd_postprocess(args, argv) -> int:
    pipeline = _build_stages(args)
    bits, in_encoding, in_sha = _read_input(args)
    out = run_pipeline(pipeline, bits)
    labels = [s.label for s in pipeline.stages]
    params = {
        "stages": labels,
        "lfsr_seed": args.lfsr_seed,
        "injection": args.injection,
        "input_encoding": in_encoding,
        "input_bits": int(bits.size),
    }
    _write_artifact(args.output, bitio.encode_bits(out, args.encoding), argv, "postprocess",
                    params, bit_count=int(out.size), encoding=args.encoding,
                    input_info=(args.input, in_sha))
    chain = " -> ".join(labels)
    print(f"postprocess: {bits.size} bits -> {out.size} bits via {chain}; wrote {args.output}")
    return 0


def cmd_test(args, argv) -> int:
    bits, _, in_sha = _read_input(args)
    if bits.size < stats.BATTERY_MIN_BITS and not args.allow_short:
        raise UsageError(
            f"input has {bits.size} bits; the battery wants at least "
            f"{stats.BATTERY_MIN_BITS} (pass --allow-short to run anyway)"
        )
    try:
        report = stats.run_battery(
            bits,
            alpha=args.alpha,
            fail_threshold=args.fail_threshold,
            block_size=args.block_size,
            pattern_length=args.pattern_length,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    text = stats.render_report(report)
    sys.stdout.write(text)
    _write_artifact(args.report or (args.input + ".report"), text.encode("utf-8"), argv, "test",
                    {"alpha": args.alpha, "fail_threshold": args.fail_threshold,
                     "block_size": args.block_size, "pattern_length": args.pattern_length,
                     "input_bits": int(bits.size)}, input_info=(args.input, in_sha))
    return 0 if report.passed else 3


def cmd_calibrate(args, argv) -> int:
    model = _load_model(args.model_config, args.t_write)
    opts = {} if args.tol is None else {"tol": args.tol}  # left out: the library's default
    try:
        current = calibrate_current(model, target=args.target, **opts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except CalibrationError as exc:
        print(f"calibrate: failed: {exc}", file=sys.stderr)
        return 1
    p = switching_probability(model, current)
    print(f"calibrate (analytic): t_write={model.t_write_ns:g} ns target={args.target:g}\n"
          f"current_ua {current:.6f}\n"
          f"curve_probability {p:.9f}")
    return 0


def cmd_speed_estimate(args, argv) -> int:
    if not (math.isfinite(args.read_ns) and args.read_ns > 0):
        raise UsageError(f"--read-ns must be positive and finite, got {args.read_ns}")
    if args.clocks_per_bit < 1:
        raise UsageError(f"--clocks-per-bit must be >= 1, got {args.clocks_per_bit}")
    try:
        mhz = 1000.0 / (args.read_ns * args.clocks_per_bit)
    except OverflowError:  # a clock count too large for a float: the rate underflows
        mhz = 0.0
    if not (math.isfinite(mhz) and mhz > 0):
        raise UsageError(f"--read-ns {args.read_ns} at --clocks-per-bit {args.clocks_per_bit} "
                         f"gives a rate of {mhz:g} MHz; it must be finite and positive")
    rows = [("mram-ecc (this estimate)", mhz)] + [(n, v) for n, v in SPEED_REFERENCES]
    lines = [
        f"speed: read {args.read_ns:g} ns/bit, {args.clocks_per_bit} clocks/bit",
        f"estimated_mhz {mhz:g}",
        "",
        f"{'design':<28s} {'MHz':>8s}",
    ]
    for name, value in rows:
        lines.append(f"{name:<28s} {value:>8g}")
    print("\n".join(lines))
    return 0


def cmd_bench(args, argv) -> int:
    if args.bits < 1:
        raise UsageError("--bits must be >= 1")
    # documented defaults: a fair i.i.d. source, and a whitening register into
    # the strongest mid-length compressor
    args.sources = args.sources or [("bernoulli", "0.5")]
    args.stages = args.stages or [("lfsr", "3,1,0"), ("ecc", "31,16,3")]
    cfg, params = _resolve_source(args)
    source_label = params["source"]
    pipeline = _build_stages(args)

    lines = ["bench_version 1", f"source {source_label} seed={args.seed} bits={args.bits}"]
    t0 = time.perf_counter()
    bits = generate_stream(cfg)
    gen_seconds = time.perf_counter() - t0
    timings = [("generate", gen_seconds, args.bits, bits.size)]

    cur = bits
    for stage in pipeline.stages:
        t0 = time.perf_counter()
        out = stage.apply(cur)
        timings.append((stage.label, time.perf_counter() - t0, cur.size, out.size))
        cur = out

    total = sum(s for _, s, _, _ in timings)
    for label, seconds, bits_in, bits_out in timings:
        share = 100.0 * seconds / total if total > 0 else 0.0
        rate = bits_in / seconds / 1e6 if seconds > 0 else float("inf")
        lines.append(
            f"stage={label} seconds={seconds:.4f} bits_in={bits_in} bits_out={bits_out} "
            f"share={share:.1f}% mbit_s={rate:.2f}"
        )
    lines.append(f"total_seconds {total:.4f}")
    end_rate = cur.size / total / 1e6 if total > 0 else float("inf")
    lines.append(f"output_bits {cur.size}")
    lines.append(f"throughput_mbit_s {end_rate:.3f}")
    print("\n".join(lines))
    return 0


def _add_input_flags(p: _Parser) -> None:
    p.add_argument("input", help="input bit file")
    p.add_argument("--input-encoding", choices=["auto", bitio.PACKED, bitio.ASCII], default="auto")
    p.add_argument("--bits", type=int, default=None,
                   help="read only the first N bits (default: the sidecar's count, else the whole file)")
    p.add_argument("--bit-order", choices=[bitio.MSB_FIRST, bitio.LSB_FIRST], default=None,
                   help="bit order inside packed input bytes (default msb; refused for ascii input)")


def _add_stage_flags(p: _Parser) -> None:
    # all three append (kind, value) to one list, so stage order survives parsing
    p.add_argument("--rejection", dest="stages", action="append_const", const=("rejection", None),
                   help="von Neumann pairwise rejection stage (repeatable, order matters)")
    p.add_argument("--lfsr", dest="stages", action="append", type=lambda v: ("lfsr", v),
                   metavar="TAPS",
                   help="LFSR whitening stage, taps like 3,1,0 (repeatable, order matters)")
    p.add_argument("--ecc", dest="stages", action="append", type=lambda v: ("ecc", v),
                   metavar="N,K,T",
                   help="code compression stage, e.g. 31,16,3 (repeatable, order matters)")
    # None tells an absent flag from a given one; _build_stages puts in the stage's defaults
    p.add_argument("--lfsr-seed", type=int, default=None,
                   help="register preload for --lfsr stages")
    p.add_argument("--injection", choices=[FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION],
                   default=None)


def _add_source_flags(p: _Parser, current: bool = False) -> None:
    # every flag _resolve_source reads is declared here. Each source flag appends
    # (kind, value) to one list; _resolve_source wants exactly one, and names in its
    # messages the kinds declared here
    p.add_argument("--preset", dest="sources", action="append", type=lambda v: ("preset", v),
                   metavar="{" + ",".join(sorted(PRESETS)) + "}",
                   help="capture profile (operating probability + pulse width)")
    p.add_argument("--bernoulli", dest="sources", action="append",
                   type=lambda v: ("bernoulli", v), metavar="P", help="i.i.d. source at P(1)=P")
    p.add_argument("--markov", dest="sources", action="append", type=lambda v: ("markov", v),
                   metavar="P,RHO", help="correlated source with lag-1 autocorrelation RHO")
    kinds = ("preset", "bernoulli", "markov")
    if current:
        p.add_argument("--current", dest="sources", action="append",
                       type=lambda v: ("current", v), metavar="UA",
                       help="drive the switching model at this current (microamps)")
        p.add_argument("--t-write", type=float, default=None, help="write pulse ns for --current")
        kinds += ("current",)
    p.add_argument("--model-config", default=None, help="switching-model file (default: shipped)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(source_kinds=kinds, t_write=None)  # a command without --t-write gives none


def build_parser() -> _Parser:
    parser = _Parser(prog="eccrng", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"eccrng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="simulate an entropy-source capture")
    _add_source_flags(g, current=True)
    g.add_argument("--bits", type=int, required=True, help="number of bits to generate")
    g.add_argument("--output", required=True)
    g.add_argument("--encoding", choices=[bitio.PACKED, bitio.ASCII], default=bitio.PACKED)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("postprocess", help="run whitening stages over a bit file")
    _add_input_flags(p)
    _add_stage_flags(p)
    p.add_argument("--output", required=True)
    p.add_argument("--encoding", choices=[bitio.PACKED, bitio.ASCII], default=bitio.PACKED)
    p.set_defaults(func=cmd_postprocess)

    t = sub.add_parser("test", help="statistical battery with counting verdict")
    _add_input_flags(t)
    t.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    t.add_argument("--fail-threshold", type=int, default=stats.DEFAULT_FAIL_THRESHOLD)
    t.add_argument("--block-size", type=int, default=stats.DEFAULT_BLOCK_SIZE)
    t.add_argument("--pattern-length", type=int, default=stats.DEFAULT_PATTERN_LENGTH)
    t.add_argument("--allow-short", action="store_true",
                   help="run on fewer than the recommended bits")
    t.add_argument("--report", default=None, help="report path (default INPUT.report)")
    t.set_defaults(func=cmd_test)

    c = sub.add_parser("calibrate", help="find the current for a target probability")
    c.add_argument("--t-write", type=float, default=DEFAULT_T_WRITE_NS)
    c.add_argument("--target", type=float, default=0.5)
    c.add_argument("--tol", type=float, default=None, help="default 1e-9")
    c.add_argument("--model-config", default=None)
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("speed", help="array read-rate estimate")
    s.add_argument("--read-ns", type=float, default=10.0)
    s.add_argument("--clocks-per-bit", type=int, default=4)
    s.set_defaults(func=cmd_speed_estimate)

    b = sub.add_parser("bench", help="measure pipeline throughput")
    _add_stage_flags(b)
    _add_source_flags(b)
    b.add_argument("--bits", type=int, default=1_000_000)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except (UsageError, CliIoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
