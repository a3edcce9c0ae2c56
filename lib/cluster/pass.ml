open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Ast

(* ------------------------------------------------------------------ *)
(* Options shared by every pass                                        *)
(* ------------------------------------------------------------------ *)

type scheduler = Pack_misses | Balanced

(* Chaos testing: deterministically sabotage passes so the fail-safe
   guard's degradation path gets exercised end-to-end. *)
type chaos = {
  chaos_seed : int;
  chaos_rate : float;  (* per-pass sabotage probability *)
  fail_pass : string option;  (* always sabotage this pass *)
}

type options = {
  machine : Machine_model.t;
  profile_pm : bool;
  scheduler : scheduler;
  chaos : chaos option;
}

let default_options =
  {
    machine = Machine_model.base;
    profile_pm = true;
    scheduler = Pack_misses;
    chaos = None;
  }

type source = {
  store : Data.t Memclust_util.Once.t;
  digest : string Memclust_util.Once.t;
  reference : Data.t option Memclust_util.Once.t;
}

type ctx = {
  options : options;
  source : source option;
  snapshots : Profile.snapshots;
  stamp : unit -> int;
}

(* Differential-execution budgets. The reference run of the source
   program is bounded tightly — when the workload is too big to
   interpret cheaply, the guard falls back to structural validation
   and crash containment. Candidates get headroom (prefetch insertion
   and unrolling add some dynamic operations); a candidate that blows
   even that is degraded as a runaway. *)
let diff_ref_max_ops = 64_000_000
let diff_cand_max_ops = 128_000_000

(* Everything here depends on the program and [init] only, never on the
   machine or the passes, so one source serves every pipeline run over
   the program. The reference store is the source program's final data
   state: the paper's own methodology (§4) defines correctness as
   semantic identity to the source, so candidates are compared against
   the ORIGINAL program, and rollback restores a last-good IR that is
   itself equivalent to the source. Every execution starts from a copy
   of the one initialized store, which is sound because no pass may
   change the declarations [Data.create] lays out (the pipeline enforces
   it). *)
let source ~init p =
  let open Memclust_util in
  let store =
    Once.make (fun () ->
        let d = Data.create p in
        init d;
        d)
  in
  let digest = Once.make (fun () -> Analysis_cache.content_digest (Once.force store)) in
  let reference =
    Once.make (fun () ->
        try
          let d = Data.copy (Once.force store) in
          Exec.run ~max_ops:diff_ref_max_ops (Program.renumber p) d;
          Some d
        with Exec.Limit_exceeded -> None)
  in
  { store; digest; reference }

(* ------------------------------------------------------------------ *)
(* Events: what a pass did, in terms the report can aggregate          *)
(* ------------------------------------------------------------------ *)

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

type event =
  | Nest_seen of {
      nest_index : int;
      inner_desc : string;
      key : string;
      alpha : float;
      f_initial : float;
    }
  | Nest_action of { key : string; inner_desc : string; action : action }
  | Count of { what : string; n : int }

let pp_action ppf = function
  | Unroll_jam { target_var; factor; f_before; f_after; alpha } ->
      Format.fprintf ppf "unroll-and-jam %s by %d (f %.2f -> %.2f, alpha %.2f)"
        target_var factor f_before f_after alpha
  | Inner_unroll { inner_var; factor } ->
      Format.fprintf ppf "inner-unroll %s by %d" inner_var factor
  | Rejected { target_var; reason } ->
      Format.fprintf ppf "no transform of %s (%s)" target_var reason

let event_label = function
  | Nest_seen { inner_desc; alpha; f_initial; _ } ->
      Printf.sprintf "nest %s: alpha=%.2f f=%.2f" inner_desc alpha f_initial
  | Nest_action { action; _ } -> Format.asprintf "%a" pp_action action
  | Count { what; n } -> Printf.sprintf "%s: %d" what n

(* ------------------------------------------------------------------ *)
(* The pass record                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  description : string;
  rewrite : ctx -> program -> program * event list;
}

(* ------------------------------------------------------------------ *)
(* Nest traversal helpers (shared by passes and the pipeline's own     *)
(* instrumentation)                                                    *)
(* ------------------------------------------------------------------ *)

type located = { inner : Depgraph.inner; enclosing : loop list }

let inner_desc = function
  | Depgraph.Counted l -> l.var
  | Depgraph.Chased c -> c.cvar

(* All innermost loop-like constructs under [l], each with its enclosing
   counted loops (outermost first). A loop directly containing a chase is
   not itself innermost — the chase is. *)
let locate_all (nest : loop) : located list =
  let acc = ref [] in
  let rec walk path (l : loop) =
    let nested =
      List.filter_map
        (function Loop l' -> Some (`L l') | Chase c -> Some (`C c) | _ -> None)
        l.body
    in
    if nested = [] then acc := { inner = Depgraph.Counted l; enclosing = path } :: !acc
    else
      List.iter
        (function
          | `L l' -> walk (path @ [ l ]) l'
          | `C c ->
              acc := { inner = Depgraph.Chased c; enclosing = path @ [ l ] } :: !acc)
        nested
  in
  walk [] nest;
  List.rev !acc

(* Innermost constructs are identified across transformations by their
   loop variable / chase pointer name (unroll-and-jam keeps both). *)
let inner_key = function
  | Depgraph.Counted l -> "L:" ^ l.var
  | Depgraph.Chased c -> "C:" ^ c.cvar

(* Top-level nests eligible for per-nest passes, identified by loop
   variable. After [uniquify] every loop variable in the program is
   unique, so a top-level loop whose variable already occurred anywhere
   earlier in the body is a rewrite artifact — an unroll-and-jam postlude
   reuses the original nest's variables — and is skipped, the role the old
   driver's shifting-index bookkeeping played. *)
let source_nest_vars p =
  let seen = Hashtbl.create 32 in
  let rec note stmt =
    match stmt with
    | Loop l ->
        Hashtbl.replace seen l.var ();
        List.iter note l.body
    | Chase c -> List.iter note c.cbody
    | If (_, t, e) ->
        List.iter note t;
        List.iter note e
    | Assign _ | Use _ | Barrier | Prefetch _ -> ()
  in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Loop l ->
          let fresh = not (Hashtbl.mem seen l.var) in
          note stmt;
          if fresh then Some l.var else None
      | _ ->
          note stmt;
          None)
    p.body

let find_nest p var =
  let rec go i = function
    | [] -> None
    | Loop l :: _ when String.equal l.var var -> Some (i, l)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 p.body

let cut_after_nest p i = { p with body = List.filteri (fun j _ -> j <= i) p.body }

let nest_program p var =
  {
    p with
    body = List.filter (function Loop l -> String.equal l.var var | _ -> false) p.body;
  }

let replace_nest p ~var ~repl =
  let found = ref false in
  let body =
    List.concat_map
      (fun stmt ->
        match stmt with
        | Loop l when (not !found) && String.equal l.var var ->
            found := true;
            repl
        | _ -> [ stmt ])
      p.body
  in
  { p with body }

(* Replace the first loop (in program order) with variable [var] by the
   statement list [repl]. Exactly one replacement happens per call. *)
let replace_loop ~var ~repl stmt =
  let found = ref false in
  let rec go stmt =
    match stmt with
    | Loop l when (not !found) && String.equal l.var var ->
        found := true;
        repl
    | Loop l -> [ Loop { l with body = List.concat_map go l.body } ]
    | If (c, t, e) -> [ If (c, List.concat_map go t, List.concat_map go e) ]
    | Chase c -> [ Chase { c with cbody = List.concat_map go c.cbody } ]
    | Assign _ | Use _ | Barrier | Prefetch _ -> [ stmt ]
  in
  go stmt

(* ------------------------------------------------------------------ *)
(* The f/α estimator                                                   *)
(* ------------------------------------------------------------------ *)

let analyze (machine : Machine_model.t) p =
  Locality.analyze ~line_size:machine.line_size p

type estimate = { graph : Depgraph.t; alpha : float; fest : Festimate.t }

let estimate machine loc ~pm inner =
  let graph = Depgraph.analyze loc inner in
  { graph; alpha = Depgraph.alpha graph; fest = Festimate.compute machine loc ~pm ~graph inner }

(* ------------------------------------------------------------------ *)
(* The pipeline combinator                                             *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type nest_summary = { ns_inner : string; ns_alpha : float; ns_f : float }
  type ir_size = { stmts : int; static_refs : int }

  type entry = {
    pass_name : string;
    wall_ms : float;
    input : program;
    output : program;
    validated : bool;
    degraded : string option;
    events : event list;
  }

  type trace = {
    program_name : string;
    options : options;
    entries : entry list;
    total_ms : float;
    check_ms : float;
    profile_runs : int;
    profile_resumed : int;
    profile_ms : float;
  }

  let degraded_passes trace =
    List.filter_map
      (fun e -> Option.map (fun r -> (e.pass_name, r)) e.degraded)
      trace.entries

  let measure p =
    let stmts = ref 0 in
    let rec walk stmt =
      incr stmts;
      match stmt with
      | Loop l -> List.iter walk l.body
      | Chase c -> List.iter walk c.cbody
      | If (_, t, e) ->
          List.iter walk t;
          List.iter walk e
      | Assign _ | Use _ | Barrier | Prefetch _ -> ()
    in
    List.iter walk p.body;
    { stmts = !stmts; static_refs = List.length (Program.refs p) }

  (* Static f/α per innermost construct of every source nest. Used for the
     trace only, so it deliberately skips miss-rate profiling (pm = 1):
     re-profiling the whole program after every pass would dominate
     pipeline time. The passes call the same [estimate] with their
     profiled pm. *)
  let nest_summaries options p =
    let loc = analyze options.machine p in
    List.concat_map
      (fun var ->
        match find_nest p var with
        | None -> []
        | Some (_, nest) ->
            List.map
              (fun located ->
                let e = estimate options.machine loc ~pm:(fun _ -> 1.0) located.inner in
                { ns_inner = inner_desc located.inner; ns_alpha = e.alpha; ns_f = e.fest.f })
              (locate_all nest))
      (source_nest_vars p)

  let accepted trace =
    List.filter_map
      (fun e -> if Option.is_none e.degraded then Some (e.pass_name, e.output) else None)
      trace.entries

  let now_ms () = Unix.gettimeofday () *. 1000.0

  (* Chaos corruption: remove the first assignment, searching depth-first
     — most workloads are one big top-level nest, so dropping a top-level
     statement would usually be a no-op. The result stays structurally
     valid but is semantically wrong, which is exactly what the
     differential guard must catch. *)
  let corrupt_program (p : program) =
    let removed = ref false in
    let rec drop ss =
      match ss with
      | [] -> []
      | _ when !removed -> ss
      | Assign _ :: rest ->
          removed := true;
          rest
      | Loop l :: rest -> Loop { l with body = drop l.body } :: drop rest
      | Chase c :: rest -> Chase { c with cbody = drop c.cbody } :: drop rest
      | If (e, t, f) :: rest ->
          let t = drop t in
          let f = drop f in
          If (e, t, f) :: drop rest
      | s :: rest -> s :: drop rest
    in
    let body = drop p.body in
    if !removed then { p with body }
    else
      (* no assignment anywhere: drop whatever statement comes first *)
      match p.body with _ :: rest -> { p with body = rest } | [] -> p

  let run ?source options passes p =
    let t_start = now_ms () in
    let p0 = Program.renumber p in
    let chaos = options.chaos in
    (* stamps the source already carries (it was clustered before) *)
    let taken =
      List.concat_map Memclust_transform.Subst.name_stamps
        (Program.scalars_written p0.body
        @ List.map (fun c -> c.cvar) (Program.chases p0))
    in
    let divergence candidate =
      match source with
      | None -> None
      | Some source -> (
          match Memclust_util.Once.force source.reference with
          | None -> None
          | Some ref_store -> (
              let d = Data.copy (Memclust_util.Once.force source.store) in
              match Exec.run ~max_ops:diff_cand_max_ops candidate d with
              | () ->
                  if Data.equal ref_store d then None
                  else
                    Some "differential execution: final stores diverge from the source program"
              | exception Exec.Limit_exceeded ->
                  Some
                    "differential execution: dynamic-operation budget exceeded (runaway rewrite?)"
              | exception e ->
                  (* a corrupted candidate can raise, e.g. reading a scalar
                     whose assignment it dropped: that diverges too *)
                  Some
                    ("differential execution: the program raised "
                    ^ Printexc.to_string e)))
    in
    let invalid_ir p' =
      match Program.validate p' with
      | Error msg -> Some msg
      | Ok () ->
          if p'.arrays = p0.arrays && p'.regions = p0.regions then None
          else Some "array or region declarations differ from the source program's"
    in
    (* One pass over the pipeline from the source program. Crashes and
       invalid IR are caught after every pass; with [per_pass] each
       candidate is also differentially executed, so the first divergent
       pass is rolled back. Returns the last-good program and the trace
       entries. *)
    (* the nest-entry snapshots of this pipeline's profiles, kept by
       the replay too *)
    let snapshots = Profile.snapshots () in
    let run_passes ~per_pass =
      (* this run's rename stamps, 1, 2, ... in draw order: the replay
         draws exactly the stamps the first run drew *)
      let ctx =
        let last = ref 0 in
        let rec stamp () =
          incr last;
          if List.mem !last taken then stamp () else !last
        in
        { options; source; snapshots; stamp }
      in
      let chaos_rng =
        Option.map
          (fun c -> Memclust_util.Rng.create (c.chaos_seed lxor Hashtbl.hash p.p_name))
          chaos
      in
      (* Chaos sabotage for this pass: [`Crash] raises mid-rewrite,
         [`Corrupt] ships a semantically wrong result; the guard must
         contain both. uniquify is never sabotaged — every later pass keys
         nests by the globally-unique loop variables it establishes. *)
      let sabotage name =
        if String.equal name "uniquify" then `None
        else
          match (chaos, chaos_rng) with
          | Some c, Some rng ->
              let forced =
                match c.fail_pass with
                | Some f -> String.equal f name
                | None -> false
              in
              (* fixed draw order keeps the stream deterministic per seed *)
              let hit =
                c.chaos_rate > 0.0
                && Memclust_util.Rng.float rng 1.0 < c.chaos_rate
              in
              let crash = Memclust_util.Rng.bool rng in
              if forced then `Corrupt
              else if hit then if crash then `Crash else `Corrupt
              else `None
          | _ -> `None
      in
      let current = ref p0 in
      let entries = ref [] in
      let record entry = entries := entry :: !entries in
      List.iter
        (fun pass ->
          let input = !current in
          let t0 = now_ms () in
          let attempt () =
            match sabotage pass.name with
            | `None -> pass.rewrite ctx !current
            | `Crash ->
                failwith (Printf.sprintf "%s: chaos-injected crash" pass.name)
            | `Corrupt ->
                (* ship the real result minus one assignment: still
                   structurally plausible, semantically wrong *)
                let p', events = pass.rewrite ctx input in
                (corrupt_program p', events)
          in
          let result =
            match attempt () with
            | exception e ->
                `Crashed (Printf.sprintf "pass crashed: %s" (Printexc.to_string e))
            | p', events -> (
                let p' = Program.renumber p' in
                match invalid_ir p' with
                | Some msg -> `Invalid ("invalid IR: " ^ msg, events)
                | None -> `Valid (p', events))
          in
          let wall_ms = now_ms () -. t0 in
          (* Roll back to the last-good IR: the program is untouched, the
             failure is recorded in the trace, and the pipeline continues —
             worst case the untransformed program ships. *)
          let degrade ~validated ~events reason =
            record
              {
                pass_name = pass.name;
                wall_ms;
                input;
                output = input;
                validated;
                degraded = Some reason;
                events;
              }
          in
          match result with
          | `Crashed reason -> degrade ~validated:true ~events:[] reason
          | `Invalid (detail, events) -> degrade ~validated:false ~events detail
          | `Valid (p', events) -> (
              match if per_pass then divergence p' else None with
              | Some detail -> degrade ~validated:false ~events detail
              | None ->
                  current := p';
                  record
                    {
                      pass_name = pass.name;
                      wall_ms;
                      input;
                      output = p';
                      validated = true;
                      degraded = None;
                      events;
                    }))
        passes;
      (!current, List.rev !entries)
    in
    let check_ms = ref 0.0 in
    let timed_check f =
      let t = now_ms () in
      let v = f () in
      check_ms := !check_ms +. (now_ms () -. t);
      v
    in
    (* Every candidate is compared with the source, so checking the final
       program alone gives the same guarantee as checking every pass. Only
       when it diverges (or runs away) is the pipeline replayed with the
       per-pass check, which repeats the per-pass rollback decisions
       exactly: same passes, same chaos draws. A final program equal to
       the source in content runs as the source does: it is not run. *)
    let final, entries =
      let ((final, _) as once) = run_passes ~per_pass:false in
      if
        final != p0
        && final <> p0
        && timed_check (fun () -> divergence final) <> None
      then timed_check (fun () -> run_passes ~per_pass:true)
      else once
    in
    ( final,
      {
        program_name = p.p_name;
        options;
        entries;
        total_ms = now_ms () -. t_start;
        check_ms = !check_ms;
        profile_runs = Profile.runs snapshots;
        profile_resumed = Profile.resumed snapshots;
        profile_ms = Profile.run_ms snapshots;
      } )

  (* ---------------------------- rendering --------------------------- *)

  let pp_trace ppf trace =
    Format.fprintf ppf
      "@[<v>pipeline %s (%.2f ms total, %.2f ms check, %d profiles, %d resumed, %.2f ms)@,"
      trace.program_name trace.total_ms trace.check_ms trace.profile_runs
      trace.profile_resumed trace.profile_ms;
    List.iter
      (fun e ->
        let before = measure e.input and after = measure e.output in
        Format.fprintf ppf
          "  %-14s %7.2f ms  stmts %d->%d  refs %d->%d  [%s]@," e.pass_name
          e.wall_ms before.stmts after.stmts before.static_refs
          after.static_refs
          (match e.degraded with
          | Some _ -> "DEGRADED"
          | None -> if e.validated then "ok" else "INVALID");
        (match e.degraded with
        | Some reason -> Format.fprintf ppf "      rolled back: %s@," reason
        | None -> ());
        List.iter
          (fun ev -> Format.fprintf ppf "      %s@," (event_label ev))
          e.events)
      trace.entries;
    Format.fprintf ppf "@]"

  (* Minimal JSON emission — enough structure for external tooling without
     pulling in a JSON dependency. *)
  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_float v =
    if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

  let summaries_to_json l =
    "["
    ^ String.concat ","
        (List.map
           (fun s ->
             Printf.sprintf "{\"inner\":\"%s\",\"alpha\":%s,\"f\":%s}"
               (json_escape s.ns_inner) (json_float s.ns_alpha)
               (json_float s.ns_f))
           l)
    ^ "]"

  let entry_to_json summaries e =
    let before = measure e.input and after = measure e.output in
    Printf.sprintf
      "{\"name\":\"%s\",\"wall_ms\":%s,\"stmts_before\":%d,\"stmts_after\":%d,\"refs_before\":%d,\"refs_after\":%d,\"validated\":%b,\"degraded\":%s,\"f_before\":%s,\"f_after\":%s,\"events\":[%s]}"
      (json_escape e.pass_name) (json_float e.wall_ms)
      before.stmts after.stmts before.static_refs after.static_refs
      e.validated
      (match e.degraded with
      | Some r -> "\"" ^ json_escape r ^ "\""
      | None -> "null")
      (summaries e.input)
      (if Option.is_none e.degraded then summaries e.output else "[]")
      (String.concat ","
         (List.map
            (fun ev -> "\"" ^ json_escape (event_label ev) ^ "\"")
            e.events))

  let trace_to_json trace =
    (* an entry's input is physically the previous entry's output (or
       input, after a rollback): summarize each program once *)
    let last = ref None in
    let summaries p =
      match !last with
      | Some (q, json) when q == p -> json
      | _ ->
          let json = summaries_to_json (nest_summaries trace.options p) in
          last := Some (p, json);
          json
    in
    Printf.sprintf
      "{\"program\":\"%s\",\"total_ms\":%s,\"check_ms\":%s,\"profile_runs\":%d,\"profile_resumed\":%d,\"profile_ms\":%s,\"passes\":[%s]}"
      (json_escape trace.program_name)
      (json_float trace.total_ms) (json_float trace.check_ms)
      trace.profile_runs trace.profile_resumed (json_float trace.profile_ms)
      (String.concat ",\n  " (List.map (entry_to_json summaries) trace.entries))
end
