(** End-to-end clustering driver: the compiler algorithm of paper §3,
    expressed as a declarative pipeline of named {!Pass.t} passes run by
    {!Pass.Pipeline.run}:

    + [uniquify] — make every loop variable unique (nests are addressed by
      variable from here on);
    + [analyze] — locality analysis, (optionally) miss-rate profiling, the
      memory-parallelism dependence graph and α/f of every innermost
      loop-like construct;
    + [unroll-jam] — if a loop has a recurrence and f < α·lp,
      binary-search the largest unroll-and-jam degree of an enclosing loop
      that keeps f ≤ α·lp (re-analyzing after each trial);
    + [window-unroll] — inner-loop unrolling when the misses of ⌈W/i⌉
      iterations cannot fill the MSHRs;
    + [scalar-replace], [schedule] — scalar replacement and miss-packing
      scheduling of every innermost body.

    [analyze], [unroll-jam] and [window-unroll] fold over the source
    nests, holding the current nest's constructs and the locality
    analysis of that nest alone, rebuilt only after its rewrite. Every
    f and α is {!Pass.estimate}.

    A subset of the pipeline is selected by pass name ([?only] of {!run});
    the options never switch a pass off.

    The result is a transformed program plus a report of every decision
    and the pipeline's instrumentation trace (per-pass wall time, IR-size
    deltas, validation status). *)

open Memclust_ir

type action = Pass.action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

type nest_report = {
  nest_index : int;  (** position of the nest in the program body *)
  inner_desc : string;  (** innermost loop variable or chase pointer *)
  alpha : float;
  f_initial : float;
  actions : action list;
}

type report = {
  nests : nest_report list;
  scalar_replaced : int;  (** loads removed by scalar replacement *)
  trace : Pass.Pipeline.trace;  (** per-pass instrumentation *)
}

type scheduler = Pass.scheduler =
  | Pack_misses  (** the window-conscious packing of §3.3 (default) *)
  | Balanced  (** statement-level balanced scheduling (comparison baseline) *)

type chaos = Pass.chaos = {
  chaos_seed : int;
  chaos_rate : float;
  fail_pass : string option;
}
(** Deterministic pass sabotage for resilience testing (see
    {!Pass.chaos}). *)

type options = Pass.options = {
  machine : Machine_model.t;
  profile_pm : bool;
      (** measure P_m by cache profiling (needs [init]). The profiler
          runs only for an inner construct with a leading irregular
          reference ({!Festimate.reads_pm}), the only place Eq. 3 reads
          P_m; elsewhere f does not depend on P_m. *)
  scheduler : scheduler;  (** the [schedule] pass's local scheduler *)
  chaos : chaos option;
      (** sabotage injection (default [None]: {!run} then reads
          {!chaos_of_env}) *)
}

val default_options : options

val passes : Pass.t list
(** The registered pipeline, in execution order. *)

val pass_names : string list

val fail_pass_names : string list
(** The passes a [chaos.fail_pass] may name: every registered pass but
    [uniquify], which is never sabotaged. *)

val chaos_of_env : unit -> chaos option
(** The [MEMCLUST_CHAOS_PASSES] ("SEED[:RATE]", rate defaulting to 0.25)
    and [MEMCLUST_FAIL_PASS] (one of {!fail_pass_names}) environment
    variables — how the repro CLI reaches pipelines constructed deep
    inside the harness. [None] when neither is set; raises
    [Invalid_argument] on a malformed value. *)

val run :
  ?options:options ->
  ?init:(Data.t -> unit) ->
  ?only:string list ->
  Ast.program ->
  Ast.program * report
(** Transform the program. [init] fills a fresh store with the workload's
    data (pointer chains, index arrays) so profiling sees real access
    patterns and the semantic guard can run; it is called at most once
    per run, on the store every profile and guard execution copies.
    Without it, profiling sees a zero-filled store and the guard checks
    structure only. [only] restricts the pipeline to the named passes, in
    pipeline order ([uniquify] always runs; unknown names raise
    [Invalid_argument], as does a [chaos.fail_pass] outside
    {!fail_pass_names}); the trace lists only the passes that ran, and
    {!Pass.Pipeline.accepted} of it gives every accepted pass's program.
    The returned program is renumbered and validated after every pass. *)

val pp_report : Format.formatter -> report -> unit
