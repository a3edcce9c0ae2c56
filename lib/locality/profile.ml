open Memclust_ir

(* Set-associative LRU cache over line addresses. [lines.(set * assoc + w)]
   holds a line address or -1; [ages] holds the LRU clock. *)
type cache = {
  assoc : int;
  sets : int;
  line_shift : int;
  lines : int array;
  ages : int array;
  mutable clock : int;
}

let cache ~cache_bytes ~assoc ~line_size =
  let nlines = Int.max assoc (cache_bytes / line_size) in
  let sets = Int.max 1 (nlines / assoc) in
  let line_shift =
    let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
    log2 line_size 0
  in
  { assoc; sets; line_shift; lines = Array.make (sets * assoc) (-1);
    ages = Array.make (sets * assoc) 0; clock = 0 }

(* true = miss *)
let access c addr =
  let line = addr lsr c.line_shift in
  let set = line mod c.sets in
  let base = set * c.assoc in
  c.clock <- c.clock + 1;
  let found = ref (-1) in
  let victim = ref base in
  for w = base to base + c.assoc - 1 do
    if c.lines.(w) = line then found := w;
    if c.ages.(w) < c.ages.(!victim) then victim := w
  done;
  if !found >= 0 then begin
    c.ages.(!found) <- c.clock;
    false
  end
  else begin
    c.lines.(!victim) <- line;
    c.ages.(!victim) <- c.clock;
    true
  end

type t = { acc : int array; mis : int array }

(* The state of a profiled run between two top-level statements. A run
   that records one hands over its private store, cache and counts: it
   never touches them again, and a resumed run copies them. *)
type snapshot = {
  store : Data.t;
  exec : Exec.state;
  lines : int array;
  ages : int array;
  clock : int;
  counts : t;
}

type snapshots = {
  table : (string, snapshot) Hashtbl.t;
  mutable runs : int;
  mutable resumed : int;
  mutable ms : float;
}

let snapshots () = { table = Hashtbl.create 8; runs = 0; resumed = 0; ms = 0.0 }
let runs s = s.runs
let resumed s = s.resumed
let run_ms s = s.ms

let run ?(cache_bytes = 64 * 1024) ?(assoc = 4) ?(line_size = 64) ?snapshots
    ?(record = false) p data =
  let t0 = Unix.gettimeofday () in
  let n = Program.max_ref_id p + 1 in
  let t = { acc = Array.make n 0; mis = Array.make n 0 } in
  let c = cache ~cache_bytes ~assoc ~line_size in
  (* the cache geometry and the whole program: its statements, and the
     parameters and declarations its loop bounds and layout depend on *)
  let key q =
    Memclust_util.Analysis_cache.content_digest (cache_bytes, assoc, line_size, q)
  in
  let resume_from =
    match (snapshots, List.rev p.Ast.body) with
    | Some s, last :: (_ :: _ as before) ->
        Option.map
          (fun snap -> (snap, last))
          (Hashtbl.find_opt s.table (key { p with body = List.rev before }))
    | _ -> None
  in
  let note ref_id addr =
    let miss = access c addr in
    if ref_id > 0 && ref_id < n then begin
      t.acc.(ref_id) <- t.acc.(ref_id) + 1;
      if miss then t.mis.(ref_id) <- t.mis.(ref_id) + 1
    end
  in
  let emit =
    {
      Exec.null_emitter with
      e_load = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
      e_store = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
    }
  in
  let state, store, p_run =
    match resume_from with
    | None -> (Exec.start, Data.copy data, p)
    | Some (s, last) ->
        (* the prefix's references keep their ids in [p], so their
           counts sit at the same indices *)
        Array.blit s.lines 0 c.lines 0 (Array.length c.lines);
        Array.blit s.ages 0 c.ages 0 (Array.length c.ages);
        c.clock <- s.clock;
        Array.blit s.counts.acc 0 t.acc 0 (Array.length s.counts.acc);
        Array.blit s.counts.mis 0 t.mis 0 (Array.length s.counts.mis);
        (s.exec, Data.copy s.store, { p with body = [ last ] })
  in
  let exec = Exec.run_from ~emit state p_run store in
  Option.iter
    (fun s ->
      if record then
        Hashtbl.replace s.table (key p)
          { store; exec; lines = c.lines; ages = c.ages; clock = c.clock; counts = t };
      s.runs <- s.runs + 1;
      if Option.is_some resume_from then s.resumed <- s.resumed + 1;
      s.ms <- s.ms +. ((Unix.gettimeofday () -. t0) *. 1000.0))
    snapshots;
  t

let accesses t id = if id >= 0 && id < Array.length t.acc then t.acc.(id) else 0
let misses t id = if id >= 0 && id < Array.length t.mis then t.mis.(id) else 0

let miss_rate t id =
  let a = accesses t id in
  if a = 0 then 1.0 else float_of_int (misses t id) /. float_of_int a
