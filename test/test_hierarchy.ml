(* Direct tests of the memory-hierarchy layer: Cache internals (via the
   side-effect-free [resident] probe), the per-level Mshr file, the
   Hierarchy level stack, and Config.validate. *)
open Memclust_sim

(* ------------------------------ Cache -------------------------------- *)

let res c ~version ~addr = Cache.resident c ~version ~addr

let test_lru_eviction_order () =
  (* 2-way set; three lines to the same set evict in strict LRU order *)
  let c = Cache.create ~bytes:256 ~assoc:2 ~line:64 in
  Cache.fill c ~version:0 ~addr:0;
  Cache.fill c ~version:0 ~addr:128;
  (* touch line 0: line 2 (addr 128) becomes LRU *)
  ignore (Cache.lookup c ~version:0 ~addr:0);
  Cache.fill c ~version:0 ~addr:256;
  Alcotest.(check bool) "MRU survives" true (res c ~version:0 ~addr:0);
  Alcotest.(check bool) "LRU evicted" false (res c ~version:0 ~addr:128);
  Alcotest.(check bool) "newcomer present" true (res c ~version:0 ~addr:256);
  (* next eviction removes the untouched line 0's neighbour: line 4 is
     MRU, line 0 is now LRU *)
  Cache.fill c ~version:0 ~addr:384;
  Alcotest.(check bool) "second LRU evicted" false (res c ~version:0 ~addr:0);
  Alcotest.(check bool) "recent fill survives" true (res c ~version:0 ~addr:256)

let test_resident_no_side_effect () =
  (* [resident] must not refresh LRU: probing the LRU line and then
     filling still evicts it *)
  let c = Cache.create ~bytes:256 ~assoc:2 ~line:64 in
  Cache.fill c ~version:0 ~addr:128;
  Cache.fill c ~version:0 ~addr:0;
  (* addr 128 is LRU; a lookup would promote it, resident must not *)
  ignore (res c ~version:0 ~addr:128);
  Cache.fill c ~version:0 ~addr:256;
  Alcotest.(check bool) "probed line still evicted" false
    (res c ~version:0 ~addr:128)

let test_associativity_conflicts () =
  let c = Cache.create ~bytes:512 ~assoc:2 ~line:64 in
  Alcotest.(check int) "sets" 4 (Cache.sets c);
  Alcotest.(check int) "assoc" 2 (Cache.assoc c);
  Alcotest.(check int) "line size" 64 (Cache.line_size c);
  (* addrs 0 and 1024 share a set (stride = sets * line); both fit *)
  Cache.fill c ~version:0 ~addr:0;
  Cache.fill c ~version:0 ~addr:1024;
  Alcotest.(check bool) "both ways used" true
    (res c ~version:0 ~addr:0 && res c ~version:0 ~addr:1024);
  (* a third conflicting line overflows the set *)
  Cache.fill c ~version:0 ~addr:2048;
  Alcotest.(check bool) "set overflow evicts" false (res c ~version:0 ~addr:0);
  (* a different set is untouched *)
  Cache.fill c ~version:0 ~addr:64;
  Alcotest.(check bool) "other set unaffected" true (res c ~version:0 ~addr:1024)

let test_stale_version_refill_in_place () =
  (* refreshing a stale copy re-tags in place instead of evicting the
     set's LRU way *)
  let c = Cache.create ~bytes:256 ~assoc:2 ~line:64 in
  Cache.fill c ~version:1 ~addr:0;
  Cache.fill c ~version:1 ~addr:128;
  Alcotest.(check bool) "stale miss" false (res c ~version:2 ~addr:0);
  Cache.fill c ~version:2 ~addr:0;
  Alcotest.(check bool) "re-tagged" true (res c ~version:2 ~addr:0);
  Alcotest.(check bool) "neighbour not evicted" true (res c ~version:1 ~addr:128)

(* ------------------------------- Mshr -------------------------------- *)

let entry ?(ready = 100) ?(has_read = true) ?(has_write = false)
    ?(prefetch_only = false) () =
  { Mshr.ready; has_read; has_write; prefetch_only }

let test_mshr_coalesce () =
  let m = Mshr.create ~cap:4 in
  Alcotest.(check bool) "empty" true (Mshr.is_empty m);
  Mshr.insert m ~line:5 (entry ());
  Alcotest.(check int) "one entry" 1 (Mshr.occupancy m);
  Alcotest.(check bool) "coalescing probe finds it" true (Mshr.mem m 5);
  let e = Mshr.find m 5 in
  if e == Mshr.none then Alcotest.fail "find lost the entry";
  Alcotest.(check int) "ready preserved" 100 e.Mshr.ready;
  Alcotest.(check bool) "absent line finds none" true (Mshr.find m 6 == Mshr.none);
  Alcotest.(check bool) "other lines miss" false (Mshr.mem m 6);
  Alcotest.(check int) "read occupancy" 1 (Mshr.read_occupancy m)

let test_mshr_capacity () =
  let m = Mshr.create ~cap:2 in
  Mshr.insert m ~line:0 (entry ());
  Alcotest.(check bool) "not yet full" false (Mshr.full m);
  Mshr.insert m ~line:1 (entry ());
  Alcotest.(check bool) "full at cap" true (Mshr.full m);
  Alcotest.(check int) "capacity" 2 (Mshr.capacity m)

let test_mshr_cleanup_and_read_occ () =
  let m = Mshr.create ~cap:4 in
  Mshr.insert m ~line:0 (entry ~ready:50 ());
  Mshr.insert m ~line:1 (entry ~ready:80 ~has_read:false ());
  let e = entry ~ready:120 ~has_read:false ~prefetch_only:true () in
  Mshr.insert m ~line:2 e;
  Alcotest.(check int) "one read in flight" 1 (Mshr.read_occupancy m);
  (* the prefetch gains a demand read: the caller flips the flag then
     notifies the file *)
  e.Mshr.has_read <- true;
  e.Mshr.prefetch_only <- false;
  Mshr.note_read m;
  Alcotest.(check int) "late read counted" 2 (Mshr.read_occupancy m);
  Alcotest.(check int) "earliest completion" 50 (Mshr.next_ready m);
  Alcotest.(check bool) "nothing expires early" false (Mshr.cleanup m ~now:49);
  Alcotest.(check bool) "expiry at ready" true (Mshr.cleanup m ~now:80);
  Alcotest.(check int) "two entries retired" 1 (Mshr.occupancy m);
  Alcotest.(check int) "retired read released" 1 (Mshr.read_occupancy m);
  Alcotest.(check bool) "last expiry" true (Mshr.cleanup m ~now:120);
  Alcotest.(check bool) "drained" true (Mshr.is_empty m);
  Alcotest.(check int) "drained: no read occupancy" 0 (Mshr.read_occupancy m);
  Alcotest.(check int) "empty file: no completion" max_int (Mshr.next_ready m)

(* The file against a list model over random sequences: inserts of absent
   lines while not full, lookups, first demand reads and cleanups at a
   clock that only moves forward. Completion times are drawn from a short
   range, so several entries often expire in the same cleanup, and a cap
   above the file's initial array size makes it grow. *)
type mshr_op =
  | Insert of int * int * bool  (* line, cycles until ready, has_read *)
  | Lookup of int
  | Note_read of int
  | Cleanup of int  (* cycles to advance the clock first *)

let pp_mshr_op = function
  | Insert (l, d, r) -> Printf.sprintf "insert %d +%d%s" l d (if r then " read" else "")
  | Lookup l -> Printf.sprintf "lookup %d" l
  | Note_read l -> Printf.sprintf "note_read %d" l
  | Cleanup d -> Printf.sprintf "cleanup +%d" d

let mshr_op_gen =
  QCheck.Gen.(
    let line = int_range 0 23 in
    frequency
      [
        (5, map3 (fun l d r -> Insert (l, d, r)) line (int_range 1 12) bool);
        (2, map (fun l -> Lookup l) line);
        (2, map (fun l -> Note_read l) line);
        (3, map (fun d -> Cleanup d) (int_range 0 6));
      ])

let prop_mshr_model =
  QCheck.Test.make ~name:"file matches a list model" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map pp_mshr_op ops)))
       QCheck.Gen.(pair (oneofl [ 1; 3; 8; 12; 40 ]) (list_size (1 -- 80) mshr_op_gen)))
    (fun (cap, ops) ->
      let m = Mshr.create ~cap in
      let model = ref [] (* (line, entry), the entry inserted *) in
      let now = ref 0 in
      let reads () = List.length (List.filter (fun (_, e) -> e.Mshr.has_read) !model) in
      let earliest () = List.fold_left (fun a (_, e) -> Int.min a e.Mshr.ready) max_int !model in
      let agrees () =
        Mshr.occupancy m = List.length !model
        && Mshr.read_occupancy m = reads ()
        && Mshr.next_ready m = earliest ()
        && Bool.equal (Mshr.is_empty m) (!model = [])
        && Bool.equal (Mshr.full m) (List.length !model >= cap)
      in
      let step = function
        | Insert (line, d, has_read) ->
            if (not (List.mem_assoc line !model)) && List.length !model < cap then begin
              let e = entry ~ready:(!now + d) ~has_read () in
              Mshr.insert m ~line e;
              model := (line, e) :: !model
            end;
            true
        | Lookup line ->
            let found = Mshr.find m line in
            (match List.assoc_opt line !model with
            | Some e -> found == e
            | None -> found == Mshr.none)
            && Bool.equal (Mshr.mem m line) (List.mem_assoc line !model)
        | Note_read line ->
            (match List.assoc_opt line !model with
            | Some e when not e.Mshr.has_read ->
                e.Mshr.has_read <- true;
                Mshr.note_read m
            | _ -> ());
            true
        | Cleanup d ->
            now := !now + d;
            let live = List.filter (fun (_, e) -> e.Mshr.ready > !now) !model in
            let expired = List.length !model - List.length live in
            model := live;
            Bool.equal (Mshr.cleanup m ~now:!now) (expired > 0)
      in
      List.for_all (fun op -> step op && agrees ()) ops
      && List.for_all (fun (line, e) -> Mshr.find m line == e) !model)

(* ---------------------------- Version table --------------------------- *)

(* The table against a [Hashtbl] model: small, zero, large and negative
   keys, from an initial size small enough that the random inserts resize
   it several times; an absent key reads 0. *)
let version_key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range 0 300);
        (1, return 0);
        (1, map (fun k -> max_int - k) (int_range 0 5));
        (1, map (fun k -> (1 lsl 40) + (k lsl 20)) (int_range 0 20));
        (1, map (fun k -> -k) (int_range 1 5));
      ])

let prop_versions_model =
  QCheck.Test.make ~name:"version table matches a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "size %d: %s" size
           (String.concat "; "
              (List.map
                 (function
                   | k, Some v -> Printf.sprintf "replace %d %d" k v
                   | k, None -> Printf.sprintf "find %d" k)
                 ops)))
       QCheck.Gen.(
         pair (oneofl [ 1; 8; 64 ])
           (list_size (1 -- 400)
              (pair version_key_gen (opt ~ratio:0.6 (int_range (-3) 100_000))))))
    (fun (size, ops) ->
      let t = Hierarchy.Versions.create size in
      let model = Hashtbl.create 16 in
      let read k = Option.value (Hashtbl.find_opt model k) ~default:0 in
      List.for_all
        (fun (k, op) ->
          (match op with
          | Some v ->
              Hierarchy.Versions.replace t k v;
              Hashtbl.replace model k v
          | None -> ());
          Hierarchy.Versions.find t k = read k
          && Hierarchy.Versions.length t = Hashtbl.length model)
        ops
      && Hashtbl.fold (fun k v ok -> ok && Hierarchy.Versions.find t k = v) model true
      && List.for_all
           (fun k -> Hierarchy.Versions.find t k = read k)
           [ 0; 1; 301; max_int; min_int; 1 lsl 50; -7 ])

let test_versions_reserved_key () =
  let t = Hierarchy.Versions.create 8 in
  Alcotest.(check int) "empty table reads 0" 0 (Hierarchy.Versions.find t 5);
  Alcotest.check_raises "min_int is reserved"
    (Invalid_argument "Hierarchy.Versions.replace: key min_int") (fun () ->
      Hierarchy.Versions.replace t min_int 1);
  Alcotest.(check int) "nothing stored" 0 (Hierarchy.Versions.length t)

(* ----------------------------- Hierarchy ------------------------------ *)

let mk_hier ?(cfg = Config.base) () =
  let sh = Hierarchy.make_shared cfg ~nprocs:1 ~home:(fun _ -> 0) in
  Hierarchy.create sh ~proc:0

let complete h t =
  (* retire the miss that completes at [t] *)
  ignore (Hierarchy.cleanup h ~now:t)

let test_hierarchy_miss_then_hit () =
  let h = mk_hier () in
  Alcotest.(check int) "depth follows config" 2 (Hierarchy.depth h);
  (match Hierarchy.read h ~now:0 0x40000 with
  | None -> Alcotest.fail "cold miss must allocate"
  | Some t ->
      Alcotest.(check bool) "memory-latency completion" true
        (t >= Config.base.Config.mem_lat);
      complete h t);
  Alcotest.(check int) "one memory miss" 1 (Hierarchy.mem_misses h);
  (* after the fill, the same line hits the first level at its latency *)
  (match Hierarchy.read h ~now:200 0x40000 with
  | None -> Alcotest.fail "filled line must hit"
  | Some t -> Alcotest.(check int) "L1 hit latency" 201 t);
  Alcotest.(check int) "still one memory miss" 1 (Hierarchy.mem_misses h);
  let stats = Hierarchy.level_stats h in
  Alcotest.(check int) "L1: one hit" 1 stats.(0).Breakdown.lv_hits;
  Alcotest.(check int) "L1: one miss" 1 stats.(0).Breakdown.lv_misses

let test_hierarchy_intermediate_hit () =
  (* evict a line from the L1 but not the L2: the read must complete at
     the L2 latency without touching memory *)
  let h = mk_hier () in
  let fetch now addr =
    match Hierarchy.read h ~now addr with
    | Some t -> complete h t
    | None -> Alcotest.fail "cold miss rejected"
  in
  fetch 0 0x40000;
  (* base L1 is 16 KB direct-mapped: fetching addr+16K evicts 0x40000 from
     the L1; the 64 KB 4-way L2 keeps both *)
  fetch 500 (0x40000 + (16 * 1024));
  Alcotest.(check int) "two cold memory misses" 2 (Hierarchy.mem_misses h);
  (match Hierarchy.read h ~now:1000 0x40000 with
  | None -> Alcotest.fail "L2-resident line must hit"
  | Some t ->
      let l2_lat = (List.nth (Config.levels Config.base) 1).Config.lat in
      Alcotest.(check int) "completes at the L2 latency" (1000 + l2_lat) t);
  Alcotest.(check int) "no new memory traffic" 2 (Hierarchy.mem_misses h);
  let stats = Hierarchy.level_stats h in
  Alcotest.(check int) "L1 missed all three" 3 stats.(0).Breakdown.lv_misses;
  Alcotest.(check int) "L2 hit" 1 stats.(1).Breakdown.lv_hits;
  (* the hit refilled the L1: the next access hits at the top *)
  match Hierarchy.read h ~now:1100 0x40000 with
  | None -> Alcotest.fail "refilled line must hit"
  | Some t -> Alcotest.(check int) "back to L1 latency" 1101 t

let test_hierarchy_coalesce () =
  let h = mk_hier () in
  let t1 =
    match Hierarchy.read h ~now:0 0x40000 with
    | Some t -> t
    | None -> Alcotest.fail "first miss rejected"
  in
  (* same line, different byte: coalesces onto the in-flight miss *)
  (match Hierarchy.read h ~now:3 (0x40000 + 8) with
  | None -> Alcotest.fail "coalesced access rejected"
  | Some t2 -> Alcotest.(check int) "same completion" t1 t2);
  Alcotest.(check int) "one memory miss for the line" 1
    (Hierarchy.mem_misses h);
  Alcotest.(check int) "one entry outstanding" 1 (Hierarchy.total_occupancy h);
  Alcotest.(check int) "next completion is the miss" t1
    (Hierarchy.next_completion h)

let test_hierarchy_mshr_full () =
  let h = mk_hier ~cfg:(Config.with_mshrs 2 Config.base) () in
  ignore (Hierarchy.read h ~now:0 0x40000);
  ignore (Hierarchy.read h ~now:0 0x50000);
  Alcotest.(check int) "two in flight" 2 (Hierarchy.total_occupancy h);
  (match Hierarchy.read h ~now:0 0x60000 with
  | None -> ()
  | Some _ -> Alcotest.fail "third distinct line must be rejected at lp=2");
  Alcotest.(check int) "rejection counted" 1 (Hierarchy.mshr_full_events h);
  (* a same-line access still coalesces while the file is full *)
  match Hierarchy.read h ~now:0 (0x40000 + 16) with
  | None -> Alcotest.fail "coalescing must bypass the capacity check"
  | Some _ -> ()

let test_hierarchy_three_level_stats () =
  let h = mk_hier ~cfg:Config.three_level () in
  Alcotest.(check int) "three levels" 3 (Hierarchy.depth h);
  (match Hierarchy.read h ~now:0 0x40000 with
  | Some t -> complete h t
  | None -> Alcotest.fail "cold miss rejected");
  let stats = Hierarchy.level_stats h in
  Alcotest.(check int) "stats row per level" 3 (Array.length stats);
  Array.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "L%d missed the cold access" (i + 1))
        1 s.Breakdown.lv_misses)
    stats;
  (* warm hit at the top afterwards *)
  (match Hierarchy.read h ~now:500 0x40000 with
  | Some t -> Alcotest.(check int) "L1 hit" 501 t
  | None -> Alcotest.fail "filled line rejected");
  Alcotest.(check int) "single memory miss" 1 (Hierarchy.mem_misses h)

(* Config.three_level's files hold 16, 12 and 10 entries: a memory-bound
   miss takes an entry at every level, so the smallest, at the memory
   side, bounds the misses in flight, and every file drains together. *)
let test_hierarchy_three_level_caps () =
  let h = mk_hier ~cfg:Config.three_level () in
  let line = 64 in
  let readies =
    List.init 10 (fun i ->
        match Hierarchy.read h ~now:i (0x40000 + (i * 4096)) with
        | Some t -> t
        | None -> Alcotest.failf "miss %d rejected below the smallest cap" i)
  in
  Alcotest.(check (array (pair int int)))
    "each level's file holds all ten"
    [| (10, 16); (10, 12); (10, 10) |]
    (Hierarchy.mshr_occupancy_by_level h);
  Alcotest.(check bool) "the eleventh distinct line is rejected" true
    (Hierarchy.read h ~now:10 (0x40000 + (10 * 4096)) = None);
  Alcotest.(check int) "rejection counted" 1 (Hierarchy.mshr_full_events h);
  Alcotest.(check bool) "prefetch dropped while full" true
    (Hierarchy.prefetch h ~now:10 0x90000;
     Hierarchy.prefetch_misses h = 0);
  (match Hierarchy.read h ~now:10 (0x40000 + (3 * 4096) + (line / 2)) with
  | Some t -> Alcotest.(check int) "a same-line read coalesces" (List.nth readies 3) t
  | None -> Alcotest.fail "coalescing must bypass the capacity check");
  Alcotest.(check int) "read occupancy at the memory side" 10
    (Hierarchy.read_occupancy h);
  let first = List.fold_left Int.min max_int readies in
  Alcotest.(check int) "next completion" first (Hierarchy.next_completion h);
  Alcotest.(check bool) "nothing completes early" false
    (Hierarchy.cleanup h ~now:(first - 1));
  Alcotest.(check bool) "the first completion frees an entry" true
    (Hierarchy.cleanup h ~now:first);
  Alcotest.(check bool) "so a new miss fits" true
    (Hierarchy.read h ~now:first (0x40000 + (10 * 4096)) <> None);
  let last = List.fold_left Int.max 0 readies in
  ignore (Hierarchy.cleanup h ~now:(last + 10_000));
  Alcotest.(check (array (pair int int)))
    "every file drained"
    [| (0, 16); (0, 12); (0, 10) |]
    (Hierarchy.mshr_occupancy_by_level h);
  Alcotest.(check int) "no completion pending" max_int (Hierarchy.next_completion h)

let test_hierarchy_prefetch_coalesce () =
  let h = mk_hier () in
  Hierarchy.prefetch h ~now:0 0x40000;
  Alcotest.(check int) "prefetch issued" 1 (Hierarchy.prefetches h);
  Alcotest.(check int) "prefetch went to memory" 1
    (Hierarchy.prefetch_misses h);
  (* the demand read catches the in-flight prefetch *)
  (match Hierarchy.read h ~now:1 0x40000 with
  | None -> Alcotest.fail "late prefetch must coalesce"
  | Some _ -> ());
  Alcotest.(check int) "late prefetch counted" 1 (Hierarchy.late_prefetches h);
  Alcotest.(check int) "no separate demand miss" 0 (Hierarchy.read_misses h)

(* --------------------------- Config.validate -------------------------- *)

let is_ok = function Ok () -> true | Error _ -> false

let check_valid name cfg = Alcotest.(check bool) name true (is_ok (Config.validate cfg))

let check_invalid name cfg =
  Alcotest.(check bool) name false (is_ok (Config.validate cfg))

let with_first_level f (cfg : Config.t) =
  match Config.levels cfg with
  | l :: rest -> Config.with_levels (f l :: rest) cfg
  | [] -> cfg

let test_validate_presets () =
  check_valid "base" Config.base;
  check_valid "exemplar" Config.exemplar_like;
  check_valid "three-level" Config.three_level;
  check_valid "1 GHz" (Config.ghz Config.base);
  check_valid "resized L2" (Config.with_l2 (1024 * 1024) Config.base)

let test_validate_rejects () =
  check_invalid "empty stack" (Config.with_levels [] Config.base);
  check_invalid "zero MSHRs"
    (with_first_level (fun l -> { l with Config.mshrs = 0 }) Config.base);
  check_invalid "negative MSHRs" (Config.with_mshrs (-1) Config.base);
  check_invalid "non-power-of-two line" (Config.with_line 48 Config.base);
  check_invalid "non-power-of-two size"
    (with_first_level (fun l -> { l with Config.bytes = 3000 }) Config.base);
  check_invalid "zero associativity"
    (with_first_level (fun l -> { l with Config.assoc = 0 }) Config.base);
  check_invalid "capacity below one set"
    (with_first_level
       (fun l -> { l with Config.bytes = 64; assoc = 4 })
       Config.base);
  check_invalid "L1 larger than L2"
    (Config.with_l2 (4 * 1024) Config.base);
  check_invalid "line grows toward the processor"
    (with_first_level (fun l -> { l with Config.line = 128 }) Config.base);
  check_invalid "zero issue width" { Config.base with Config.issue_width = 0 };
  check_invalid "zero window" { Config.base with Config.window = 0 };
  check_invalid "zero write buffer"
    { Config.base with Config.write_buffer = 0 };
  check_invalid "zero banks" { Config.base with Config.banks = 0 }

let test_validate_exn () =
  Alcotest.(check bool) "validate_exn raises" true
    (try
       Config.validate_exn (Config.with_mshrs 0 Config.base);
       false
     with Invalid_argument _ -> true);
  Config.validate_exn Config.base

let () =
  Alcotest.run "hierarchy"
    [
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "resident has no side effects" `Quick
            test_resident_no_side_effect;
          Alcotest.test_case "associativity conflicts" `Quick
            test_associativity_conflicts;
          Alcotest.test_case "stale-version refill in place" `Quick
            test_stale_version_refill_in_place;
        ] );
      ( "mshr",
        [
          Alcotest.test_case "same-line coalescing" `Quick test_mshr_coalesce;
          Alcotest.test_case "capacity bound" `Quick test_mshr_capacity;
          Alcotest.test_case "cleanup and read occupancy" `Quick
            test_mshr_cleanup_and_read_occ;
          QCheck_alcotest.to_alcotest prop_mshr_model;
        ] );
      ( "versions",
        [
          QCheck_alcotest.to_alcotest prop_versions_model;
          Alcotest.test_case "reserved key" `Quick test_versions_reserved_key;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "miss then hit" `Quick test_hierarchy_miss_then_hit;
          Alcotest.test_case "intermediate-level hit" `Quick
            test_hierarchy_intermediate_hit;
          Alcotest.test_case "same-line coalescing" `Quick
            test_hierarchy_coalesce;
          Alcotest.test_case "MSHR-full rejection" `Quick
            test_hierarchy_mshr_full;
          Alcotest.test_case "three-level stats" `Quick
            test_hierarchy_three_level_stats;
          Alcotest.test_case "late prefetch" `Quick
            test_hierarchy_prefetch_coalesce;
          Alcotest.test_case "three-level MSHR caps" `Quick
            test_hierarchy_three_level_caps;
        ] );
      ( "validate",
        [
          Alcotest.test_case "presets pass" `Quick test_validate_presets;
          Alcotest.test_case "bad configs rejected" `Quick test_validate_rejects;
          Alcotest.test_case "validate_exn" `Quick test_validate_exn;
        ] );
    ]
