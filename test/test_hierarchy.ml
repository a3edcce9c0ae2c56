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
  (match Mshr.find m 5 with
  | None -> Alcotest.fail "find lost the entry"
  | Some e -> Alcotest.(check int) "ready preserved" 100 e.Mshr.ready);
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
        ] );
      ( "validate",
        [
          Alcotest.test_case "presets pass" `Quick test_validate_presets;
          Alcotest.test_case "bad configs rejected" `Quick test_validate_rejects;
          Alcotest.test_case "validate_exn" `Quick test_validate_exn;
        ] );
    ]
