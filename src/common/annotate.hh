/**
 * @file
 * Static-analysis annotations for the p5lint contract checker.
 *
 * The engine rests on three contracts that ordinary testing can only
 * sample: the busy path must never allocate (DESIGN §8), the
 * fast-forward idle probe must be side-effect-free (DESIGN §7's
 * bit-identical-stats guarantee), and results must be deterministic
 * under a fixed seed (the FAME methodology and the SimRunner result
 * cache both assume it). tools/p5lint.py closes all reachable paths at
 * compile time; these macros are how source code declares which
 * contract applies where (DESIGN §11).
 *
 *  - P5_HOT_PATH      marks a root of the per-cycle busy path: nothing
 *                     transitively reachable from it may allocate.
 *  - P5_PROBE_PURE    marks a root of the idle-probe family: everything
 *                     reachable must be const and free of writes to
 *                     members or globals.
 *  - P5_CONFIG_STRUCT marks a parameter struct whose every field must
 *                     be bound to a config path in ConfigTree::bindAll()
 *                     (a fingerprint hole otherwise).
 *  - P5_SERIALIZE_ROOT marks a checkpoint serialize/restore entry point
 *                     (DESIGN §14): nothing transitively reachable from
 *                     it may iterate an unordered container, and here
 *                     P5_ALLOW(determinism) is void — a lookup-only
 *                     exemption cannot be told apart from iteration
 *                     feeding the serialized byte stream.
 *  - P5_COLD          declares a function legitimately off the
 *                     per-cycle path (checkpoint restore, store I/O).
 *                     p5lint rejects any P5_COLD function reachable
 *                     from a P5_HOT_PATH root.
 *  - P5_ALLOW(rule)   grants a reviewed exemption from one rule, either
 *                     for a whole function/member (prefix the
 *                     declaration) or for a single statement (prefix the
 *                     statement). Every use must carry a comment saying
 *                     why the exemption is sound.
 *
 * Rule names are the snake_case forms of the p5lint rules:
 * hot_path_no_alloc, probe_purity, determinism, config_completeness.
 *
 * The macros expand to nothing on every compiler: p5lint recognizes
 * the macro names textually, so the contracts are enforced regardless
 * of which compiler produced the compile database.
 */

#ifndef P5SIM_COMMON_ANNOTATE_HH
#define P5SIM_COMMON_ANNOTATE_HH

#define P5_ANNOTATE(text)

/** Root of the per-cycle busy path: no reachable allocation. */
#define P5_HOT_PATH P5_ANNOTATE("p5:hot_path")

/** Root of the idle-probe family: const-only, no reachable writes. */
#define P5_PROBE_PURE P5_ANNOTATE("p5:probe_pure")

/** Parameter struct whose fields must all be bound in bindAll(). */
#define P5_CONFIG_STRUCT P5_ANNOTATE("p5:config_struct")

/** Checkpoint serialize/restore entry point: deterministic bytes only. */
#define P5_SERIALIZE_ROOT P5_ANNOTATE("p5:serialize_root")

/** Legitimately off the per-cycle path; must stay hot-unreachable. */
#define P5_COLD P5_ANNOTATE("p5:cold")

/** Reviewed exemption from one p5lint rule (always comment the why). */
#define P5_ALLOW(rule) P5_ANNOTATE("p5:allow:" #rule)

#endif // P5SIM_COMMON_ANNOTATE_HH
