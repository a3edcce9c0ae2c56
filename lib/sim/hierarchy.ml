(* The per-processor memory hierarchy: a stack of cache levels (each with
   its own geometry, hit latency and MSHR file) terminating in the shared
   banked memory system. Owns the whole miss lifecycle — lookup, MSHR
   allocate/coalesce, fill, stale-version invalidation — and exposes only
   completion-time / retry signals to the pipeline in [Core].

   Semantics, kept bit-identical to the pre-refactor fixed L1(+L2) code on
   equal-line stacks:

   - A hit at level [k] costs that level's latency and fills every level
     above it (inclusion by refill). Intermediate-level hits are plain
     pipelined accesses: no MSHR is involved.
   - A miss past the last level allocates ONE shared {!Mshr.entry},
     inserted into every level's file under that level's own line key —
     a request occupies an MSHR at each level it passed through, so the
     smallest file in the stack bounds memory parallelism (lp), and a
     coalescing probe at any level finds the same entry.
   - Coherence and memory transfers are at the last level's line size. *)

(* line -> packed version, open addressing with linear probing. Lines are
   never removed, so a probe stops at the first free cell and there are
   no tombstones. A free cell holds [free] as its key, which is why that
   one key cannot be stored. The table is at most half full. *)
module Versions = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable count : int;
    mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  }

  let free = min_int

  let create size =
    let rec bits b = if 1 lsl b >= size || b >= 30 then b else bits (b + 1) in
    let b = bits 3 in
    {
      keys = Array.make (1 lsl b) free;
      vals = Array.make (1 lsl b) 0;
      count = 0;
      shift = 63 - b;
    }

  let length t = t.count

  (* Fibonacci hashing: the top bits of the 63-bit product, so strided
     lines spread over the table too *)
  let[@inline] start t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

  (* the cell holding [k], or the free cell where it would go *)
  let[@inline] cell t k =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (start t k) in
    while keys.(!i) <> k && keys.(!i) <> free do
      i := (!i + 1) land mask
    done;
    !i

  let find t k = if k = free then 0 else t.vals.(cell t k)

  let rec replace t k v =
    if k = free then invalid_arg "Hierarchy.Versions.replace: key min_int";
    let i = cell t k in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) free;
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.shift <- t.shift - 1;
      t.count <- 0;
      for j = 0 to Array.length keys - 1 do
        if keys.(j) <> free then replace t keys.(j) vals.(j)
      done;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.count <- t.count + 1
    end
end

type shared = {
  cfg : Config.t;
  mem : Memsys.t;
  versions : Versions.t;
  home : int -> int;
  nprocs : int;
}

type level = {
  cache : Cache.t;
  mshr : Mshr.t;
  lat : int;
  lshift : int;  (* log2 line, or -1 when not a power of two *)
  lsize : int;
}

type t = {
  sh : shared;
  proc : int;
  levels : level array;
  coh_shift : int;  (* last level's line: coherence/transfer granularity *)
  coh_size : int;
  (* statistics *)
  level_hits : int array;  (* demand loads satisfied at each level *)
  level_misses : int array;  (* demand loads missing each level *)
  mutable mem_misses : int;  (* demand accesses that went to memory *)
  mutable read_misses : int;
  mutable read_miss_lat : float;
  mutable mshr_full_count : int;
  mutable refusals : int;  (* allocations that found a file full *)
  mutable prefetch_count : int;
  mutable prefetch_miss_count : int;  (* prefetches that went to memory *)
  mutable late_prefetch_count : int;
      (* demand loads catching an in-flight prefetch *)
}

(* A version entry packs (coherence version, last writer) into one int:
   the writer plus one in the low [writer_bits] bits, so a line never
   written (version 0, writer -1) is 0. *)
let writer_bits = 16

let make_shared cfg ~nprocs ~home =
  if nprocs >= (1 lsl writer_bits) - 1 then
    invalid_arg
      (Printf.sprintf "Hierarchy.make_shared: %d processors (at most %d)"
         nprocs ((1 lsl writer_bits) - 2));
  { cfg; mem = Memsys.create cfg ~nprocs; versions = Versions.create 4096; home; nprocs }

let log2_shift v =
  if v > 0 && v land (v - 1) = 0 then begin
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0
  end
  else -1

let create sh ~proc =
  let levels =
    Array.of_list
      (List.map
         (fun (l : Config.level) ->
           {
             cache = Cache.create ~bytes:l.Config.bytes ~assoc:l.Config.assoc
                 ~line:l.Config.line;
             mshr = Mshr.create ~cap:l.Config.mshrs;
             lat = l.Config.lat;
             lshift = log2_shift l.Config.line;
             lsize = l.Config.line;
           })
         sh.cfg.Config.levels)
  in
  let n = Array.length levels in
  if n = 0 then invalid_arg "Hierarchy.create: config has no cache levels";
  let bottom = levels.(n - 1) in
  {
    sh;
    proc;
    levels;
    coh_shift = bottom.lshift;
    coh_size = bottom.lsize;
    level_hits = Array.make n 0;
    level_misses = Array.make n 0;
    mem_misses = 0;
    read_misses = 0;
    read_miss_lat = 0.0;
    mshr_full_count = 0;
    refusals = 0;
    prefetch_count = 0;
    prefetch_miss_count = 0;
    late_prefetch_count = 0;
  }

let depth t = Array.length t.levels
let bottom t = t.levels.(Array.length t.levels - 1)

let coh_line t addr =
  if t.coh_shift >= 0 then addr lsr t.coh_shift else addr / t.coh_size

let level_line lvl addr =
  if lvl.lshift >= 0 then addr lsr lvl.lshift else addr / lvl.lsize

let pack_version ~version ~writer = (version lsl writer_bits) lor (writer + 1)
let version_of vw = vw asr writer_bits
let writer_of vw = (vw land ((1 lsl writer_bits) - 1)) - 1

let version t line = Versions.find t.sh.versions line

let miss_kind t ~writer ~home =
  if t.sh.nprocs = 1 then Memsys.Local
  else if writer >= 0 && writer <> t.proc then Memsys.Dirty_remote
  else if home = t.proc then Memsys.Local
  else Memsys.Remote

(* Coalescing probe: an in-flight miss covering [addr] at any level. Line
   sizes are non-decreasing toward memory, so addresses sharing an upper
   line share every line below — all levels hold the same entry set, just
   under their own keys; probing top-down finds the shared entry, or
   {!Mshr.none} when there is none. *)
let find_inflight t addr =
  let levels = t.levels in
  let found = ref Mshr.none and k = ref 0 in
  while !found == Mshr.none && !k < Array.length levels do
    let lvl = levels.(!k) in
    found := Mshr.find lvl.mshr (level_line lvl addr);
    incr k
  done;
  !found

(* A memory-bound miss needs an entry in every file. *)
let any_full t =
  let full = ref false in
  for k = 0 to Array.length t.levels - 1 do
    if Mshr.full t.levels.(k).mshr then full := true
  done;
  !full

let allocate t addr ~ready ~has_read ~has_write ~prefetch_only =
  let e = { Mshr.ready; has_read; has_write; prefetch_only } in
  for k = 0 to Array.length t.levels - 1 do
    let lvl = t.levels.(k) in
    Mshr.insert lvl.mshr ~line:(level_line lvl addr) e
  done

let note_read t (e : Mshr.entry) =
  if not e.Mshr.has_read then begin
    e.Mshr.has_read <- true;
    for k = 0 to Array.length t.levels - 1 do
      Mshr.note_read t.levels.(k).mshr
    done
  end

let fill_above t k ~version ~addr =
  for i = 0 to k - 1 do
    Cache.fill t.levels.(i).cache ~version ~addr
  done

let fill_all t ~version ~addr = fill_above t (Array.length t.levels) ~version ~addr

(* Demand-load probe from level [k] down: the first level that hits, or
   the depth when every level misses; counts each level's hit or miss. *)
let rec probe_read t ~version ~addr k =
  if k >= Array.length t.levels then k
  else if Cache.lookup t.levels.(k).cache ~version ~addr then begin
    t.level_hits.(k) <- t.level_hits.(k) + 1;
    k
  end
  else begin
    t.level_misses.(k) <- t.level_misses.(k) + 1;
    probe_read t ~version ~addr (k + 1)
  end

(* The same probe for a prefetch, which counts nothing. *)
let rec probe t ~version ~addr k =
  if k >= Array.length t.levels then k
  else if Cache.lookup t.levels.(k).cache ~version ~addr then k
  else probe t ~version ~addr (k + 1)

(* Demand load: [Some ready] or [None] when no MSHR is available. *)
let read t ~now addr =
  let e = find_inflight t addr in
  if e != Mshr.none then begin
    if e.Mshr.prefetch_only then begin
      (* the prefetch launched the line but too late to hide it fully *)
      t.late_prefetch_count <- t.late_prefetch_count + 1;
      e.Mshr.prefetch_only <- false
    end;
    note_read t e;
    Some e.Mshr.ready
  end
  else
    let line = coh_line t addr in
    let vw = version t line in
    let v = version_of vw and w = writer_of vw in
    let n = Array.length t.levels in
    match probe_read t ~version:v ~addr 0 with
    | k when k < n ->
        fill_above t k ~version:v ~addr;
        Some (now + t.levels.(k).lat)
    | _ ->
        if any_full t then begin
          t.mshr_full_count <- t.mshr_full_count + 1;
          t.refusals <- t.refusals + 1;
          None
        end
        else begin
          let home = t.sh.home addr in
          let kind = miss_kind t ~writer:w ~home in
          let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
          allocate t addr ~ready ~has_read:true ~has_write:false
            ~prefetch_only:false;
          fill_all t ~version:v ~addr;
          t.mem_misses <- t.mem_misses + 1;
          t.read_misses <- t.read_misses + 1;
          t.read_miss_lat <- t.read_miss_lat +. float_of_int (ready - now);
          Some ready
        end

(* Write-buffer drain access (write-allocate). *)
let write t ~now addr =
  let line = coh_line t addr in
  let vw = version t line in
  let v = version_of vw and w = writer_of vw in
  (* coherence: a write by a new owner invalidates all other copies *)
  let v' = if w <> t.proc && w >= 0 then v + 1 else v in
  let committed = pack_version ~version:v' ~writer:t.proc in
  let e = find_inflight t addr in
  if e != Mshr.none then begin
    e.Mshr.has_write <- true;
    Versions.replace t.sh.versions line committed;
    fill_all t ~version:v' ~addr;
    Some e.Mshr.ready
  end
  else
    let owned = w = t.proc || w < 0 in
    (* every level is probed (so every copy gets its LRU refresh) even
       below the first hit, as the fixed two-level model did *)
    let hit_level = ref (-1) in
    if owned then
      for k = 0 to Array.length t.levels - 1 do
        if Cache.lookup t.levels.(k).cache ~version:v ~addr && !hit_level < 0
        then hit_level := k
      done;
    if !hit_level >= 0 then begin
      Versions.replace t.sh.versions line committed;
      fill_all t ~version:v' ~addr;
      Some (now + t.levels.(!hit_level).lat)
    end
    else if any_full t then begin
      t.refusals <- t.refusals + 1;
      None
    end
    else begin
      let home = t.sh.home addr in
      let kind = miss_kind t ~writer:w ~home in
      let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
      allocate t addr ~ready ~has_read:false ~has_write:true
        ~prefetch_only:false;
      Versions.replace t.sh.versions line committed;
      fill_all t ~version:v' ~addr;
      t.mem_misses <- t.mem_misses + 1;
      Some ready
    end

(* Non-binding prefetch: fills the caches if it can get an MSHR, is
   dropped when the line is already present/in flight or when no MSHR is
   available (as hardware drops hint prefetches under pressure). *)
let prefetch t ~now addr =
  t.prefetch_count <- t.prefetch_count + 1;
  if find_inflight t addr == Mshr.none then
    let line = coh_line t addr in
    let vw = version t line in
    let v = version_of vw and w = writer_of vw in
    let n = Array.length t.levels in
    let k = probe t ~version:v ~addr 0 in
    if k < n then fill_above t k ~version:v ~addr
    else if any_full t then t.refusals <- t.refusals + 1
    else begin
      let home = t.sh.home addr in
      let kind = miss_kind t ~writer:w ~home in
      let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
      allocate t addr ~ready ~has_read:false ~has_write:false
        ~prefetch_only:true;
      fill_all t ~version:v ~addr;
      t.prefetch_miss_count <- t.prefetch_miss_count + 1
    end

(* ------------------------------------------------------------------ *)

let cleanup t ~now =
  let any = ref false in
  for k = 0 to Array.length t.levels - 1 do
    if Mshr.cleanup t.levels.(k).mshr ~now then any := true
  done;
  !any

let next_completion t =
  let next = ref max_int in
  for k = 0 to Array.length t.levels - 1 do
    let r = Mshr.next_ready t.levels.(k).mshr in
    if r < !next then next := r
  done;
  !next

(* Occupancy metrics read the last (memory-side) level: its file tracks
   exactly the memory-bound misses in flight — the paper's Figure 4
   "MSHRs at the L2". *)
let read_occupancy t = Mshr.read_occupancy (bottom t).mshr
let total_occupancy t = Mshr.occupancy (bottom t).mshr

(* (occupancy, capacity) of every level's MSHR file, processor side
   first — the watchdog's state dump *)
let mshr_occupancy_by_level t =
  Array.map (fun lvl -> (Mshr.occupancy lvl.mshr, Mshr.capacity lvl.mshr)) t.levels

(* statistics *)
let mem_misses t = t.mem_misses
let read_misses t = t.read_misses
let read_miss_latency_sum t = t.read_miss_lat
let l1_misses t = t.level_misses.(0)
let mshr_full_events t = t.mshr_full_count
let refusals t = t.refusals
let prefetches t = t.prefetch_count
let prefetch_misses t = t.prefetch_miss_count
let late_prefetches t = t.late_prefetch_count

let level_stats t =
  Array.mapi
    (fun i _ ->
      {
        Breakdown.lv_name = Printf.sprintf "L%d" (i + 1);
        lv_hits = t.level_hits.(i);
        lv_misses = t.level_misses.(i);
      })
    t.levels

(* Re-apply the per-cycle retry statistics of a no-progress step [times]
   more times (event-mode idle replay): each of its [retries] loads was
   rejected on full MSHRs after missing every level. *)
let replay_retry t ~retries ~times =
  let n = retries * times in
  if n > 0 then begin
    for i = 0 to Array.length t.level_misses - 1 do
      t.level_misses.(i) <- t.level_misses.(i) + n
    done;
    t.mshr_full_count <- t.mshr_full_count + n
  end
