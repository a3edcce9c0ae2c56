open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_transform
open Ast

(* Re-exported so existing callers keep their [Driver.Unroll_jam],
   [Driver.default_options] spellings. *)
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

type scheduler = Pass.scheduler = Pack_misses | Balanced
type chaos = Pass.chaos = {
  chaos_seed : int;
  chaos_rate : float;
  fail_pass : string option;
}

type options = Pass.options = {
  machine : Machine_model.t;
  profile_pm : bool;
  scheduler : scheduler;
  chaos : chaos option;
}

let default_options = Pass.default_options

type nest_report = {
  nest_index : int;
  inner_desc : string;
  alpha : float;
  f_initial : float;
  actions : action list;
}

type report = {
  nests : nest_report list;
  scalar_replaced : int;
  trace : Pass.Pipeline.trace;
}

(* ------------------------------------------------------------------ *)
(* Uniquify: rename loop variables so every counted loop is unique      *)
(* ------------------------------------------------------------------ *)

(* Sibling loops reusing a variable name (FFT's per-stage nests, Ocean's
   two sweeps) would otherwise be indistinguishable to the name-keyed
   nest traversal. *)
let uniquify_loops (p : program) =
  let taken = Hashtbl.create 32 in
  let fresh v =
    if not (Hashtbl.mem taken v) then begin
      Hashtbl.add taken v ();
      v
    end
    else begin
      let rec pick k =
        let cand = Printf.sprintf "%s$%d" v k in
        if Hashtbl.mem taken cand then pick (k + 1) else cand
      in
      let w = pick 1 in
      Hashtbl.add taken w ();
      w
    end
  in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let w = fresh l.var in
        let stmt' =
          if String.equal w l.var then Loop l
          else Memclust_transform.Subst.rename_var l.var w (Loop l)
        in
        (match stmt' with
        | Loop l' -> Loop { l' with body = List.map walk l'.body }
        | _ -> assert false)
    | Chase c -> Chase { c with cbody = List.map walk c.cbody }
    | If (cond, t, e) -> If (cond, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  { p with body = List.map walk p.body }

(* ------------------------------------------------------------------ *)
(* Analysis wrappers                                                   *)
(* ------------------------------------------------------------------ *)

(* Profiling interprets the program, so [evaluate] profiles only for an
   inner construct whose scope holds a leading irregular reference:
   everywhere else Eq. 3 never reads P_m. It profiles the program cut
   after the nest at body position [i] ({!Pass.cut_after_nest}): the
   nest's references run only inside it, after the unchanged statements
   before it, so their miss rates are exactly the whole program's. The
   same cut program is still profiled repeatedly — across binary-search
   steps, across keys and passes that leave it alone, and across machine
   configurations that differ only in parameters the profile doesn't
   depend on (window, MSHR count). Memoize on the line size, a digest of
   the initialized source store and a content digest of the program, so
   caches key on content: one program clustered over two differently
   initialized stores gets two profiles. The returned closure reads an
   immutable profile, so sharing across domains is safe. Candidates keep
   the source's declarations (the pipeline enforces it), so the shared
   initialized source store is their store too: [Profile.run] executes
   over a private copy of it.

   A cut that stops before the program's end leaves its exit state in the
   pipeline's snapshot table; a later cut whose statements before the
   nest are exactly that cut (a later nest's candidates, once the earlier
   nest is settled) resumes from it and executes only its own nest. The
   snapshots live and die with the pipeline; the resumed profile is the
   one a run from the start gives, so the memo above never knows. *)
let pm_cache : (int -> float) Memclust_util.Analysis_cache.t =
  Memclust_util.Analysis_cache.create ~cap:512 ~name:"driver-profile-pm" ()

let make_pm options ~source p i =
  let line_size = options.machine.Machine_model.line_size in
  let cut = Pass.cut_after_nest p i in
  let key =
    Printf.sprintf "%d|%s|%s" line_size
      (match source with
      | None -> "-" (* the zero-filled store of [p]'s declarations *)
      | Some s -> Lazy.force s.Pass.digest)
      (Memclust_util.Analysis_cache.content_digest cut)
  in
  Memclust_util.Analysis_cache.find_or_compute pm_cache key (fun () ->
      let prof =
        match source with
        | Some s ->
            Profile.run ~line_size ~snapshots:s.Pass.snapshots
              ~record:(i + 1 < List.length p.body)
              cut (Lazy.force s.Pass.store)
        | None -> Profile.run ~line_size cut (Data.create cut)
      in
      fun id -> Profile.miss_rate prof id)

(* A source nest as the fold holds it: variable, body position, loop,
   innermost constructs and the locality analysis of the nest alone
   ({!Pass.nest_program}: its references get their whole-program info). *)
type nest = { var : string; index : int; loop : loop; located : Pass.located list;
              loc : Locality.t Lazy.t }

let nest_of options p var =
  Option.map
    (fun (index, loop) ->
      let loc = lazy (Pass.analyze options.machine (Pass.nest_program p var)) in
      { var; index; loop; located = Pass.locate_all loop; loc })
    (Pass.find_nest p var)

(* The innermost construct identified by [key] in [nest]. *)
let find_key key nest =
  List.find_opt
    (fun (l : Pass.located) -> String.equal (Pass.inner_key l.inner) key)
    nest.located
  |> Option.map (fun located -> (nest, located))

(* The estimate of the innermost construct [inner] of [nest] in [p],
   profiling P_m only where Eq. 3 reads it. *)
let evaluate options ~source p nest inner =
  let loc = Lazy.force nest.loc in
  let pm =
    if options.profile_pm && Festimate.reads_pm loc inner then
      make_pm options ~source p nest.index
    else fun _ -> 1.0
  in
  Pass.estimate options.machine loc ~pm inner

(* [p] with the loop over [var] inside [nest] replaced by [repl] (which
   may also put loops beside the nest at top level), renumbered. *)
let splice p nest ~var ~repl =
  Program.renumber
    (Pass.replace_nest p ~var:nest.var
       ~repl:(Pass.replace_loop ~var ~repl (Loop nest.loop)))

(* ------------------------------------------------------------------ *)
(* Unroll-and-jam with binary search on the degree                     *)
(* ------------------------------------------------------------------ *)

let try_factor ~stamp p nest (parent : loop) enclosing n =
  let outer_ranges =
    Legality.ranges_of_nest ~params:p.params
      (List.filter (fun (l : loop) -> not (String.equal l.var parent.var)) enclosing)
  in
  match
    Unroll_jam.apply ~params:p.params ~outer_ranges ~stamp:(stamp ()) ~factor:n parent
  with
  | Error e -> Error (Format.asprintf "%a" Unroll_jam.pp_error e)
  | Ok repl -> Ok (splice p nest ~var:parent.var ~repl)

let resolve_recurrences { Pass.options; source; stamp } p nest ~key parent
    enclosing ~alpha ~f0 =
  let lp = float_of_int options.machine.Machine_model.mshrs in
  let target = alpha *. lp in
  let u = options.machine.Machine_model.max_unroll in
  (* a loop whose iterations will be block-distributed (parallel, with no
     parallel ancestor) must keep at least max_procs chunks *)
  let u =
    let distributed =
      parent.parallel
      &&
      let rec outside = function
        | [] -> true
        | (l : loop) :: rest ->
            if String.equal l.var parent.var then true
            else (not l.parallel) && outside rest
      in
      outside enclosing
    in
    if not distributed then u
    else
      match Legality.trip ~params:p.params parent with
      | Some (_, count) ->
          min u (max 1 (count / options.machine.Machine_model.max_procs))
      | None -> u
  in
  (* f is monotone in the unroll degree: binary-search the largest degree
     whose f stays within α·lp (the paper's contention-conscious rule).
     A candidate is a fresh program: find the nest and the construct in
     it again, and analyze that nest alone (f reads only its
     references). *)
  let f_of n =
    match try_factor ~stamp p nest parent enclosing n with
    | Error msg -> Error msg
    | Ok p' -> (
        match Option.bind (nest_of options p' nest.var) (find_key key) with
        | Some (nest', located) ->
            Ok (p', (evaluate options ~source p' nest' located.Pass.inner).fest.f)
        | None -> Error "internal: nest vanished")
  in
  let best = ref None in
  let last_error = ref "" in
  let lo = ref 2 and hi = ref u in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    match f_of mid with
    | Ok (p', f) when f <= target ->
        best := Some (mid, p', f);
        lo := mid + 1
    | Ok _ -> hi := mid - 1
    | Error msg ->
        last_error := msg;
        hi := mid - 1
  done;
  match !best with
  | Some (n, p', f) ->
      ( p',
        [ Unroll_jam
            { target_var = parent.var; factor = n; f_before = f0; f_after = f; alpha };
        ] )
  | None ->
      ( p,
        [ Rejected
            {
              target_var = parent.var;
              reason =
                (if String.equal !last_error "" then
                   "no degree improves f within alpha*lp"
                 else !last_error);
            };
        ] )

(* ------------------------------------------------------------------ *)
(* Window-constraint resolution                                        *)
(* ------------------------------------------------------------------ *)

let resolve_window { Pass.options; source; stamp } p nest (located : Pass.located) =
  let { Pass.graph; fest; _ } = evaluate options ~source p nest located.inner in
  let lp = float_of_int options.machine.Machine_model.mshrs in
  let density = fest.Festimate.misses_per_iteration in
  match located.inner with
  | Depgraph.Counted l
    when graph.Depgraph.recurrences = [] && density > 0.0 && fest.Festimate.f < lp -> (
      let k =
        min options.machine.Machine_model.max_unroll
          (max 2 (int_of_float (Float.ceil (lp /. density))))
      in
      match Inner_unroll.apply ~params:p.params ~stamp:(stamp ()) ~factor:k l with
      | Error _ -> (p, [])
      | Ok repl ->
          (splice p nest ~var:l.var ~repl, [ Inner_unroll { inner_var = l.var; factor = k } ]))
  | _ -> (p, [])

(* ------------------------------------------------------------------ *)
(* Miss-packing scheduling of innermost bodies                         *)
(* ------------------------------------------------------------------ *)

let schedule_innermost options p =
  let loc = Pass.analyze options.machine p in
  let scheduled = ref 0 in
  let reorder body =
    let body' =
      match options.scheduler with
      | Pack_misses -> Schedule.pack_misses loc body
      | Balanced -> Balanced_sched.reorder loc body
    in
    if body' != body && body' <> body then incr scheduled;
    body'
  in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) l.body
        in
        if has_nested then Loop { l with body = List.map walk l.body }
        else Loop { l with body = reorder l.body }
    | Chase c ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) c.cbody
        in
        if has_nested then Chase { c with cbody = List.map walk c.cbody }
        else Chase { c with cbody = reorder c.cbody }
    | If (c, t, e) -> If (c, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  let p' = { p with body = List.map walk p.body } in
  (p', !scheduled)

(* ------------------------------------------------------------------ *)
(* The registered passes                                               *)
(* ------------------------------------------------------------------ *)

(* Chase pointer names are not uniquified, so an inner-construct key alone
   can repeat across nests; events qualify it with the nest variable so the
   report attaches each action to the right nest. *)
let qkey nest key = nest.var ^ "/" ^ key

let nest_action nest ~key (l : Pass.located) action =
  Pass.Nest_action { key = qkey nest key; inner_desc = Pass.inner_desc l.inner; action }

(* The fold over the source nests, threading the program through [f]
   with each innermost-construct key of a nest (as the fold reached it)
   and the construct it names. The nest's state is built on reaching it
   and again only after a key's rewrite, which changes only that nest. *)
let over_nest_keys options p f =
  let events = ref [] in
  let p = ref p in
  List.iter
    (fun var ->
      match nest_of options !p var with
      | None -> ()
      | Some first ->
          let nest = ref (Some first) in
          List.map (fun (l : Pass.located) -> Pass.inner_key l.inner) first.located
          |> List.sort_uniq String.compare
          |> List.iter (fun key ->
                 match Option.bind !nest (find_key key) with
                 | None -> ()
                 | Some (n, located) ->
                     let p', evs = f !p n ~key located in
                     if p' != !p then begin
                       p := p';
                       nest := nest_of options p' var
                     end;
                     events := !events @ evs))
    (Pass.source_nest_vars !p);
  (!p, !events)

let uniquify_pass =
  {
    Pass.name = "uniquify";
    description = "rename loop variables so every counted loop is unique";
    rewrite = (fun _ p -> (uniquify_loops p, []));
  }

let analyze_pass =
  {
    Pass.name = "analyze";
    description =
      "per-nest locality/dependence analysis: records alpha and the \
       initial f of every innermost construct";
    rewrite =
      (fun { Pass.options; source; _ } p ->
        over_nest_keys options p (fun p nest ~key located ->
            let e = evaluate options ~source p nest located.Pass.inner in
            ( p,
              [ Pass.Nest_seen
                  {
                    nest_index = nest.index;
                    inner_desc = Pass.inner_desc located.inner;
                    key = qkey nest key;
                    alpha = e.alpha;
                    f_initial = e.fest.f;
                  };
              ] )));
  }

let unroll_jam_pass =
  {
    Pass.name = "unroll-jam";
    description =
      "resolve memory-parallelism recurrences: binary-search the largest \
       unroll-and-jam degree keeping f <= alpha*lp (paper §3.2)";
    rewrite =
      (fun ({ Pass.options; source; _ } as ctx) p ->
        let lp = float_of_int options.machine.Machine_model.mshrs in
        over_nest_keys options p (fun p nest ~key located ->
            let { Pass.alpha; fest; _ } =
              evaluate options ~source p nest located.Pass.inner
            in
            if alpha > 0.0 && fest.f < alpha *. lp && located.enclosing <> [] then begin
              (* try enclosing loops from the immediate parent outward
                 (the paper defers the deeper-nest choice to Carr &
                 Kennedy; nearest-first is their common case) *)
              let p = ref p in
              let events = ref [] in
              let rec attempt = function
                | [] -> ()
                | target :: rest ->
                    let p', acts =
                      resolve_recurrences ctx !p nest ~key target located.enclosing
                        ~alpha ~f0:fest.f
                    in
                    p := p';
                    events := !events @ List.map (nest_action nest ~key located) acts;
                    if not (List.exists (function Unroll_jam _ -> true | _ -> false) acts)
                    then attempt rest
              in
              attempt (List.rev located.enclosing);
              (!p, !events)
            end
            else (p, [])));
  }

let window_pass =
  {
    Pass.name = "window-unroll";
    description =
      "inner-loop unrolling when the misses of one window's worth of \
       iterations cannot fill the MSHRs (paper §3.3)";
    rewrite =
      (fun ctx p ->
        over_nest_keys ctx.Pass.options p (fun p nest ~key located ->
            let p', acts = resolve_window ctx p nest located in
            (p', List.map (nest_action nest ~key located) acts)));
  }

let scalar_replace_pass =
  {
    Pass.name = "scalar-replace";
    description =
      "lift regular array loads into scalars and forward stored values \
       (the reuse unroll-and-jam creates, paper §2.2)";
    rewrite =
      (fun _ p ->
        let p', n = Scalar_replace.apply_innermost p in
        (p', [ Pass.Count { what = "scalar-replaced"; n } ]));
  }

let schedule_pass =
  {
    Pass.name = "schedule";
    description =
      "miss-packing (or balanced) scheduling of every innermost body \
       (paper §3.3)";
    rewrite =
      (fun { Pass.options; _ } p ->
        let p', n = schedule_innermost options p in
        (p', [ Pass.Count { what = "bodies rescheduled"; n } ]));
  }

let passes =
  [
    uniquify_pass;
    analyze_pass;
    unroll_jam_pass;
    window_pass;
    scalar_replace_pass;
    schedule_pass;
  ]

let pass_names = List.map (fun p -> p.Pass.name) passes

(* uniquify is never sabotaged: every later pass keys nests by the
   unique loop variables it establishes *)
let fail_pass_names =
  List.filter (fun n -> not (String.equal n "uniquify")) pass_names

let check_chaos ~what c =
  match c.fail_pass with
  | Some n when not (List.mem n fail_pass_names) ->
      invalid_arg
        (Printf.sprintf "%s: %S is not a pass that can fail (valid: %s)" what n
           (String.concat ", " fail_pass_names))
  | _ -> c

(* "SEED[:RATE]" in MEMCLUST_CHAOS_PASSES (rate defaults to 0.25), plus
   MEMCLUST_FAIL_PASS naming one pass to sabotage unconditionally. The
   environment route exists so the repro CLI can reach pipelines built
   deep inside the harness, mirroring MEMCLUST_SIM_MODE. *)
let chaos_of_env () =
  let fail_pass =
    match Sys.getenv_opt "MEMCLUST_FAIL_PASS" with
    | None | Some "" -> None
    | Some s -> Some s
  in
  let spec =
    match Sys.getenv_opt "MEMCLUST_CHAOS_PASSES" with
    | None | Some "" -> None
    | Some s -> Some s
  in
  match (spec, fail_pass) with
  | None, None -> None
  | _ ->
      let chaos_seed, chaos_rate =
        match spec with
        | None -> (0, 0.0)
        | Some s -> (
            let bad () =
              invalid_arg
                (Printf.sprintf
                   "MEMCLUST_CHAOS_PASSES: expected SEED[:RATE] with RATE in \
                    [0,1], got %S"
                   s)
            in
            match String.split_on_char ':' (String.trim s) with
            | [ seed ] -> (
                match int_of_string_opt seed with
                | Some seed -> (seed, 0.25)
                | None -> bad ())
            | [ seed; rate ] -> (
                match (int_of_string_opt seed, float_of_string_opt rate) with
                | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
                    (seed, rate)
                | _ -> bad ())
            | _ -> bad ())
      in
      Some
        (check_chaos ~what:"MEMCLUST_FAIL_PASS"
           { chaos_seed; chaos_rate; fail_pass })

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

let report_of_trace (trace : Pass.Pipeline.trace) =
  let nests : (string * nest_report) list ref = ref [] in
  let scalar_replaced = ref 0 in
  let handle = function
    | Pass.Nest_seen { nest_index; inner_desc; key; alpha; f_initial } ->
        nests :=
          !nests @ [ (key, { nest_index; inner_desc; alpha; f_initial; actions = [] }) ]
    | Pass.Nest_action { key; inner_desc; action } -> (
        match List.assoc_opt key !nests with
        | Some _ ->
            nests :=
              List.map
                (fun (k, nr) ->
                  if String.equal k key then (k, { nr with actions = nr.actions @ [ action ] })
                  else (k, nr))
                !nests
        | None ->
            (* the analyze pass was not selected: synthesize a bare nest entry *)
            nests :=
              !nests
              @ [ ( key,
                    {
                      nest_index = -1;
                      inner_desc;
                      alpha = 0.0;
                      f_initial = 0.0;
                      actions = [ action ];
                    } );
                ])
    | Pass.Count { what; n } ->
        if String.equal what "scalar-replaced" then
          scalar_replaced := !scalar_replaced + n
  in
  List.iter
    (fun (e : Pass.Pipeline.entry) -> List.iter handle e.events)
    trace.entries;
  { nests = List.map snd !nests; scalar_replaced = !scalar_replaced; trace }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let select_passes only =
  match only with
  | None -> passes
  | Some names ->
      List.iter
        (fun n ->
          if not (List.mem n pass_names) then
            invalid_arg
              (Printf.sprintf "Cluster.Driver: unknown pass %S (have: %s)" n
                 (String.concat ", " pass_names)))
        names;
      (* uniquify underpins the name-keyed traversal of every other pass;
         it cannot be opted out of *)
      List.filter
        (fun p ->
          String.equal p.Pass.name "uniquify" || List.mem p.Pass.name names)
        passes

let run ?(options = default_options) ?init ?only (p : program) =
  (* one initialized source store per pipeline, built on first use; the
     profiler and the semantic guard run over copies of it *)
  let source =
    Option.map
      (fun init ->
        let store =
          lazy
            (let d = Data.create p in
             init d;
             d)
        in
        let digest =
          lazy (Memclust_util.Analysis_cache.content_digest (Lazy.force store))
        in
        { Pass.store; digest; snapshots = Profile.snapshots () })
      init
  in
  let chaos =
    match options.chaos with
    | Some c -> Some (check_chaos ~what:"Cluster.Driver: chaos.fail_pass" c)
    | None -> chaos_of_env ()
  in
  let p', trace =
    Pass.Pipeline.run ?source { options with chaos } (select_passes only) p
  in
  (p', report_of_trace trace)

let pp_action = Pass.pp_action

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun n ->
      Format.fprintf ppf "nest %d (inner %s): alpha=%.2f f=%.2f@," n.nest_index
        n.inner_desc n.alpha n.f_initial;
      List.iter (fun a -> Format.fprintf ppf "  %a@," pp_action a) n.actions)
    r.nests;
  Format.fprintf ppf "scalar loads eliminated: %d@]" r.scalar_replaced
