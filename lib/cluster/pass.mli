(** Composable, instrumented transformation passes.

    The paper's method is a pipeline — analyze (locality, dependence
    graph, f/α per Equations 1–4), then rewrite (unroll-and-jam, inner
    unrolling, scalar replacement, miss-packing scheduling). This module
    gives each stage the shape of classic compiler infrastructure: a
    named {!t} with a rewrite function, run by {!Pipeline.run}, which after {e every} pass renumbers and validates
    the program (failing fast with the offending pass named), checks the
    final program's semantics against the source once, and records
    wall-clock time, IR-size deltas and before/after f/α summaries
    (computed when first read) into a structured {!Pipeline.trace}.

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
  failsafe : bool;
      (** guard every pass (default): a pass that crashes, produces
          invalid IR or changes program semantics is rolled back and
          recorded as degraded instead of failing the pipeline *)
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
  | Nest_action of { key : string; action : action }
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

val replace_nest : program -> var:string -> repl:stmt list -> program
(** Splice [repl] in place of the first top-level loop with variable
    [var]. *)

val replace_loop : var:string -> repl:stmt list -> stmt -> stmt list
(** Replace the first loop (in program order) with variable [var] inside
    one statement by [repl]; exactly one replacement per call. *)

(** {1 The pipeline} *)

module Pipeline : sig
  type nest_summary = { ns_inner : string; ns_alpha : float; ns_f : float }
  type ir_size = { stmts : int; static_refs : int }

  type summaries
  (** The f/α summaries of one program, {!nest_summaries} of it, computed
      the first time {!summaries} reads them and kept from then on. Until
      then the cell holds the program. *)

  val summaries : summaries -> nest_summary list
  (** Read (computing on the first read) the summaries. A first read costs
      one whole-program locality analysis plus the dependence graph and f
      of every innermost construct; later reads are free. Safe to call
      from several domains at once: racing first reads compute equal lists
      and raise nothing. *)

  type entry = {
    pass_name : string;
    wall_ms : float;
        (** the rewrite plus renumbering and validation; the semantic check
            is timed in {!trace.check_ms}, the f/α summaries not at all *)
    size_before : ir_size;
    size_after : ir_size;
    f_before : summaries;
        (** of the program the pass received; physically the previous
            accepted pass's [f_after] *)
    f_after : summaries;
        (** of the accepted program; empty when the pass was rolled back *)
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
    entries : entry list;
    total_ms : float;
    check_ms : float;
        (** the semantic check: the source's reference run, the final
            program's run and, after a divergence, the whole per-pass
            replay *)
  }

  val degraded_passes : trace -> (string * string) list
  (** [(pass, reason)] for every degraded entry, in pipeline order. *)

  val measure : program -> ir_size

  val nest_summaries : options -> program -> nest_summary list
  (** Static f/α per innermost construct of every source nest, with
      [pm = 1] (no profiling: it describes every pass boundary of a
      trace). *)

  val run :
    ?observe:(string -> program -> unit) ->
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

      With [options.failsafe] (the default) a pass that crashes, produces
      invalid IR or diverges semantically is rolled back: the trace entry
      records [degraded] with the reason and the pipeline continues from
      the last-good IR, so the worst case ships the untransformed program,
      never a crash or wrong code. With [failsafe = false] the same
      detections raise [Memclust_util.Error.Error] ([Pass_failed] or
      [Legality_violation]) naming the pass — for a divergence, the first
      divergent one.

      [observe] is called, once the result is settled, with the pass name
      and the accepted program of each pass of the shipped run that was
      not rolled back. The entries' f/α summaries are not
      computed here: a caller that never reads them never pays for them. *)

  val pp_trace : Format.formatter -> trace -> unit

  val trace_to_json : trace -> string
  (** The trace as a self-contained JSON object (name, wall time, IR
      deltas, validation status and f/α summaries per pass); reads, and so
      computes, every entry's summaries. *)
end
