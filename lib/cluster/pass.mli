(** Composable, instrumented transformation passes.

    The paper's method is a pipeline — analyze (locality, dependence
    graph, f/α per Equations 1–4), then rewrite (unroll-and-jam, inner
    unrolling, scalar replacement, miss-packing scheduling). This module
    gives each stage the shape of classic compiler infrastructure: a
    named {!t} with a rewrite function, run by {!Pipeline.run}, which after {e every} pass renumbers and validates
    the program (failing fast with the offending pass named), checks the
    final program's semantics against the source once, and records each
    pass's wall-clock time and the programs it received and shipped into
    a structured {!Pipeline.trace}, from which IR-size deltas and
    before/after f/α summaries are computed.

    The standard pipeline lives in {!Driver}; this module is the
    machinery plus the nest-traversal helpers the passes share. *)

open Memclust_ir
open Memclust_depgraph
open Ast

(** {1 Options} *)

type scheduler =
  | Pack_misses  (** the window-conscious packing of §3.3 (default) *)
  | Balanced  (** statement-level balanced scheduling (comparison baseline) *)

type chaos = {
  chaos_seed : int;
  chaos_rate : float;
      (** per-pass sabotage probability; each sabotage is a crash
          (exception mid-rewrite) or a corruption (semantically wrong
          result), drawn deterministically from the seed *)
  fail_pass : string option;
      (** a pass name to corrupt unconditionally ([uniquify] is never
          sabotaged: later passes key nests by its unique variables) *)
}
(** Chaos testing for the fail-safe pipeline: deterministic, seeded
    sabotage of passes, so graceful degradation is exercisable
    end-to-end. *)

type options = {
  machine : Machine_model.t;
  profile_pm : bool;  (** measure P_m by cache profiling (needs [source]) *)
  scheduler : scheduler;  (** the [schedule] pass's local scheduler *)
  chaos : chaos option;
      (** sabotage injection (default [None]; {!Driver.run} then consults
          {!Driver.chaos_of_env}) *)
}

val default_options : options

type source = {
  store : Data.t Lazy.t;
      (** the source program's store filled by the workload's
          initializer, built on first use *)
  digest : string Lazy.t;
      (** a digest of [store]'s contents, computed on first use: the
          miss-rate memo's key for the store *)
  snapshots : Memclust_locality.Profile.snapshots;
      (** the nest-entry snapshots of the pipeline's profiles over
          [store], so a candidate's profile runs only its own nest *)
}
(** The initialized source store of one pipeline run (for miss-rate
    profiling and the semantic guard). It is shared: run programs over a
    {!Data.copy} of [store], never over the store itself. It serves every
    candidate because no pass may change the array and region
    declarations {!Data.create} lays out. *)

type ctx = {
  options : options;
  source : source option;
  stamp : unit -> int;
      (** the next rename stamp for unroll-and-jam and inner unrolling:
          1, 2, ... afresh in each run of the pass sequence, skipping the
          source's own stamps *)
}
(** What every pass may consult, built by {!Pipeline.run}. *)

(** {1 Events} *)

(** One decision taken on a nest (reported per nest in {!Driver.report}). *)
type action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

(** What a pass did, in terms the driver's report can aggregate. *)
type event =
  | Nest_seen of {
      nest_index : int;  (** position of the nest in the program body *)
      inner_desc : string;
      key : string;  (** stable identity of the innermost construct *)
      alpha : float;
      f_initial : float;
    }
  | Nest_action of { key : string; inner_desc : string; action : action }
  | Count of { what : string; n : int }

val pp_action : Format.formatter -> action -> unit
val event_label : event -> string

(** {1 The pass record} *)

type t = {
  name : string;
  description : string;
  rewrite : ctx -> program -> program * event list;
      (** must return a structurally valid program; the pipeline renumbers
          and validates after every pass *)
}

(** {1 Nest traversal}

    Shared helpers: top-level nests are addressed by loop variable, which
    [Driver]'s uniquify pass makes globally unique — stable against the
    top-level postlude statements unroll-and-jam splices in (which reuse
    existing variables and are therefore recognized and skipped). *)

type located = { inner : Depgraph.inner; enclosing : loop list }

val inner_desc : Depgraph.inner -> string
val inner_key : Depgraph.inner -> string

val locate_all : loop -> located list
(** All innermost loop-like constructs under a nest, each with its
    enclosing counted loops (outermost first). *)

val source_nest_vars : program -> string list
(** Variables of the top-level source nests, in program order; top-level
    loops whose variable already occurred earlier in the body (postlude
    artifacts) are excluded. *)

val find_nest : program -> string -> (int * loop) option
(** Current body position and loop of the first top-level nest with the
    given variable. *)

val cut_after_nest : program -> int -> program
(** [cut_after_nest p i]: [p] without the top-level statements after body
    position [i] (as {!find_nest} returns it). Not renumbered, so every
    kept reference keeps its [ref_id]. *)

val nest_program : program -> string -> program
(** [nest_program p var]: [p] with only its top-level loops over [var] —
    the nest and any remainder loop unroll-and-jam split off it at top
    level — not renumbered. {!Locality} groups references by the
    variables of their enclosing loops, and after uniquification only
    these loops share the nest's, so its analysis gives every reference
    of the nest the info a whole-program analysis gives. *)

val replace_nest : program -> var:string -> repl:stmt list -> program
(** Splice [repl] in place of the first top-level loop with variable
    [var]. *)

val replace_loop : var:string -> repl:stmt list -> stmt -> stmt list
(** Replace the first loop (in program order) with variable [var] inside
    one statement by [repl]; exactly one replacement per call. *)

(** {1 The f/α estimator}

    The one estimate (Eqs. 1–4) the passes, the trace summaries and
    [repro analyze] make of an innermost construct. *)

val analyze : Machine_model.t -> program -> Memclust_locality.Locality.t
(** Locality analysis at the machine's line size (the passes analyze one
    nest's {!nest_program}). *)

type estimate = { graph : Depgraph.t; alpha : float; fest : Festimate.t }

val estimate :
  Machine_model.t -> Memclust_locality.Locality.t -> pm:(int -> float) -> Depgraph.inner -> estimate
(** [estimate machine loc ~pm inner]: the dependence graph of [inner],
    its {!Depgraph.alpha} and {!Festimate.compute}'s f, with [pm] each
    leading irregular reference's miss rate (profiled, or 1). *)

(** {1 The pipeline} *)

module Pipeline : sig
  type nest_summary = { ns_inner : string; ns_alpha : float; ns_f : float }
  type ir_size = { stmts : int; static_refs : int }

  type entry = {
    pass_name : string;
    wall_ms : float;
        (** the rewrite plus renumbering and validation; the semantic check
            is timed in {!trace.check_ms} *)
    input : program;
        (** the program the pass received: the renumbered source for the
            first entry, physically the previous entry's [output] after *)
    output : program;
        (** the accepted program, or [input] itself when the pass was
            rolled back *)
    validated : bool;
        (** false only on a degraded entry whose candidate failed
            validation or differential execution *)
    degraded : string option;
        (** [Some reason]: the pass failed its guard (crash, invalid IR,
            or semantic divergence) and was rolled back — the program
            shipped to the next pass is the last-good IR *)
    events : event list;
  }

  type trace = {
    program_name : string;
    options : options;  (** the options the pipeline ran with *)
    entries : entry list;
    total_ms : float;
    check_ms : float;
        (** the semantic check: the source's reference run, the final
            program's run and, after a divergence, the whole per-pass
            replay *)
    profile_runs : int;
        (** P_m profiles run over the source store (none without a
            source); a memo hit runs none *)
    profile_resumed : int;
        (** those of [profile_runs] that resumed from a nest-entry
            snapshot and ran only their last nest *)
    profile_ms : float;
        (** wall time of [profile_runs], part of the passes' [wall_ms] *)
  }

  val degraded_passes : trace -> (string * string) list
  (** [(pass, reason)] for every degraded entry, in pipeline order. *)

  val accepted : trace -> (string * program) list
  (** [(pass, output)] for every entry that was not rolled back, in
      pipeline order: the last output is the shipped program. *)

  val measure : program -> ir_size

  val nest_summaries : options -> program -> nest_summary list
  (** Static f/α per innermost construct of every source nest: the
      {!estimate} over one whole-program {!analyze}, with [pm = 1] (no
      profiling: it describes every pass boundary of a trace). *)

  val run :
    ?source:source ->
    options ->
    t list ->
    program ->
    program * trace
  (** Run the passes in order under the fail-safe guard. After
      every pass the result is renumbered and validated, and its array and
      region declarations must equal the source's; a crash or invalid IR
      is caught right there. When there is a [source] store and the
      source program fits the interpreter op budget, the final program is
      then differentially executed once against the {e original}
      program's final store. Since every candidate is compared with the
      source, one final check gives the guarantee of a check per pass.
      A candidate diverges when its final store differs from the
      source's or when its execution raises (a corrupted rewrite can read
      an unassigned scalar). Only if the final program diverges or exceeds
      its op budget is the pipeline replayed with a differential check after every pass, which
      repeats the per-pass rollback decisions exactly (chaos draws
      included); a divergence a later pass masks is not reported.

      A pass that crashes, produces invalid IR or diverges semantically
      is rolled back: the trace entry records [degraded] with the reason
      (for a divergence, on the first divergent pass) and the pipeline
      continues from the last-good IR, so the worst case ships the
      untransformed program, never a crash or wrong code. The trace is
      that of the shipped run. *)

  val pp_trace : Format.formatter -> trace -> unit
  (** Per pass: wall time, IR sizes ({!measure} of [input] and [output])
      and status. *)

  val trace_to_json : trace -> string
  (** The trace as a self-contained JSON object (name, wall time, IR
      sizes, validation status and, per pass, {!nest_summaries} of
      [input] and of [output] — [[]] for a degraded entry's [output]).
      The summaries are computed here, once per distinct program. *)
end
