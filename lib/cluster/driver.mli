(** End-to-end clustering driver: the compiler algorithm of paper §3,
    expressed as a declarative pipeline of named {!Pass.t} passes run by
    {!Pass.Pipeline.run}:

    + [uniquify] — make every loop variable unique (nests are addressed by
      variable from here on);
    + [analyze] — locality analysis, (optionally) miss-rate profiling, the
      memory-parallelism dependence graph and α/f of every innermost
      loop-like construct;
    + [fuse], [strip-mine] — optional comparison/extension transforms
      (disabled by default);
    + [unroll-jam] — if a loop has a recurrence and f < α·lp,
      binary-search the largest unroll-and-jam degree of an enclosing loop
      that keeps f ≤ α·lp (re-analyzing after each trial);
    + [window-unroll] — inner-loop unrolling when the misses of ⌈W/i⌉
      iterations cannot fill the MSHRs;
    + [scalar-replace], [prefetch] (optional), [schedule] — scalar
      replacement, prefetch insertion and miss-packing scheduling of every
      innermost body.

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
  | No_schedule

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
  do_unroll_jam : bool;
  do_window : bool;  (** inner unrolling for window constraints *)
  do_scalar_replace : bool;
  do_schedule : bool;  (** run a local scheduler at all *)
  scheduler : scheduler;
  do_fuse : bool;  (** optional fusion pass (paper §6), default off *)
  do_strip_mine : bool;  (** optional strip-mine pass (§2.2), default off *)
  do_prefetch : bool;  (** optional prefetch-insertion pass, default off *)
  failsafe : bool;
      (** guard the pipeline, rolling back failing passes as degraded
          (default; see {!Pass.Pipeline.run}) *)
  chaos : chaos option;  (** sabotage injection (default [None]) *)
}

val default_options : options

val passes : Pass.t list
(** The registered pipeline, in execution order. *)

val pass_names : string list

val run :
  ?options:options ->
  ?init:(Data.t -> unit) ->
  ?only:string list ->
  ?observe:(string -> Ast.program -> unit) ->
  Ast.program ->
  Ast.program * report
(** Transform the program. [init] fills a fresh store with the workload's
    data (pointer chains, index arrays) so profiling sees real access
    patterns and the semantic guard can run; it is called at most once
    per run, on the store every profile and guard execution copies.
    Without it, profiling sees a zero-filled store and the guard checks
    structure only. [only] restricts the pipeline to the named passes
    (overriding the option flags; [uniquify] always runs; unknown names
    raise [Invalid_argument]). [observe] is called with the pass name and
    program of every pass of the shipped run that was accepted (see
    {!Pass.Pipeline.run}). The returned program is renumbered and
    validated after every pass. *)

val pp_report : Format.formatter -> report -> unit
