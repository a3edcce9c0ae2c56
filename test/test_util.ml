open Memclust_util

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------- Rng ------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differ = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then differ := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differ

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let differ = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then differ := true
  done;
  Alcotest.(check bool) "split stream independent" true !differ

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let prop_rng_permutation =
  QCheck.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Rng.permutation rng n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all (fun b -> b) seen)

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"Rng.shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ------------------------------ Stats ------------------------------ *)

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean [||])

let test_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  Alcotest.(check (float 1e-6)) "known" 2.0
    (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "interpolated" 1.5 (Stats.percentile xs 12.5)

let test_percentile_empty () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let prop_acc_matches_arrays =
  QCheck.Test.make ~name:"Stats.Acc matches array stats" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun l ->
      let acc = Stats.Acc.create () in
      List.iter (Stats.Acc.add acc) l;
      let a = Array.of_list l in
      Stats.Acc.count acc = Array.length a
      && abs_float (Stats.Acc.mean acc -. Stats.mean a) < 1e-9
      && Stats.Acc.min acc = Stats.minimum a
      && Stats.Acc.max acc = Stats.maximum a)

let test_histogram () =
  let h = Stats.Histogram.create 4 in
  Stats.Histogram.add h 0;
  Stats.Histogram.add h 1;
  Stats.Histogram.add h 1;
  Stats.Histogram.add h 9 (* clamps to 3 *);
  Alcotest.(check (float 1e-9)) "total" 4.0 (Stats.Histogram.total h);
  Alcotest.(check (float 1e-9)) ">=0" 1.0 (Stats.Histogram.fraction_at_least h 0);
  Alcotest.(check (float 1e-9)) ">=1" 0.75 (Stats.Histogram.fraction_at_least h 1);
  Alcotest.(check (float 1e-9)) ">=2" 0.25 (Stats.Histogram.fraction_at_least h 2);
  Alcotest.(check (float 1e-9)) "clamped bucket" 1.0 (Stats.Histogram.bucket h 3)

let prop_histogram_monotone =
  QCheck.Test.make ~name:"fraction_at_least decreases in N" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 15))
    (fun l ->
      let h = Stats.Histogram.create 16 in
      List.iter (Stats.Histogram.add h) l;
      let ok = ref true in
      for n = 1 to 15 do
        if Stats.Histogram.fraction_at_least h n
           > Stats.Histogram.fraction_at_least h (n - 1) +. 1e-12
        then ok := false
      done;
      !ok)

(* ------------------------------ Table ------------------------------ *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_mismatch () =
  let raises f =
    match f () with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "short row raises" true
    (raises (fun () -> Table.render ~header:[ "a"; "bb" ] [ [ "xxx" ] ]));
  Alcotest.(check bool) "long row raises" true
    (raises (fun () ->
         Table.render ~header:[ "a"; "bb" ] [ [ "x"; "y"; "z" ] ]));
  Alcotest.(check bool) "short aligns raises" true
    (raises (fun () ->
         Table.render ~aligns:[ Table.Left ] ~header:[ "a"; "bb" ]
           [ [ "x"; "y" ] ]))

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1" (Table.fmt_float ~decimals:1 3.14159);
  Alcotest.(check string) "pct" "21.0%" (Table.fmt_pct 0.21)

(* -------------------------- Analysis_cache ------------------------- *)

let test_cache_memoizes () =
  let c = Analysis_cache.create ~name:"test-memo" () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    42
  in
  Alcotest.(check int) "first" 42 (Analysis_cache.find_or_compute c "k" compute);
  Alcotest.(check int) "second" 42 (Analysis_cache.find_or_compute c "k" compute);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check (option int)) "find_opt" (Some 42)
    (Analysis_cache.find_opt c "k");
  Analysis_cache.clear c;
  Alcotest.(check (option int)) "cleared" None (Analysis_cache.find_opt c "k")

let test_cache_bounded () =
  let cap = 4 in
  let c = Analysis_cache.create ~cap ~name:"test-bounded" () in
  for i = 0 to 9 do
    Analysis_cache.set c (string_of_int i) i
  done;
  Alcotest.(check int) "at cap" cap (Analysis_cache.length c);
  (* FIFO eviction: the oldest entries are gone, the newest survive *)
  Alcotest.(check (option int)) "oldest evicted" None
    (Analysis_cache.find_opt c "0");
  Alcotest.(check (option int)) "newest kept" (Some 9)
    (Analysis_cache.find_opt c "9")

let test_cache_registry () =
  let c = Analysis_cache.create ~name:"test-registry" () in
  Analysis_cache.set c "x" 1;
  Alcotest.(check bool) "registered" true
    (List.exists
       (fun (name, _) -> name = "test-registry")
       (Analysis_cache.registered ()));
  Analysis_cache.clear_all ();
  Alcotest.(check (option int)) "clear_all empties" None
    (Analysis_cache.find_opt c "x")

(* The memo keys of programs: [(s, s)] and [(s, copy of s)] are the same
   program, however their blocks are shared. *)
let test_content_digest_ignores_sharing () =
  let open Memclust_ir in
  let stmt () =
    let open Builder in
    loop "i" (cst 0) (cst 8) [ store (aref "a" (ix "i")) (arr "a" (ix "i") + flt 1.0) ]
  in
  let program body =
    Builder.program "shared" ~arrays:[ Builder.array_decl "a" 8 ] body
  in
  let s = stmt () in
  let shared = program [ s; s ] and copied = program [ s; stmt () ] in
  Alcotest.(check bool) "structurally equal" true (shared = copied);
  Alcotest.(check bool) "marshalled with sharing, they differ" false
    (String.equal (Marshal.to_string shared []) (Marshal.to_string copied []));
  Alcotest.(check string) "content digests agree"
    (Analysis_cache.content_digest shared)
    (Analysis_cache.content_digest copied);
  Alcotest.(check bool) "a different program digests apart" false
    (String.equal
       (Analysis_cache.content_digest shared)
       (Analysis_cache.content_digest (program [ s ])))

(* ------------------------------ Plot ------------------------------- *)

let test_plot_bar () =
  Alcotest.(check string) "full" (String.make 10 '#') (Plot.bar ~width:10 1.0);
  Alcotest.(check string) "clipped" (String.make 10 '#') (Plot.bar ~width:10 2.0);
  Alcotest.(check string) "empty" "" (Plot.bar ~width:10 0.0);
  Alcotest.(check string) "half" "#####" (Plot.bar ~width:10 0.5)

let test_plot_stacked () =
  let s = Plot.stacked_bar ~width:10 ~segments:[ ('a', 0.5); ('b', 0.5) ] in
  Alcotest.(check string) "two segments" "aaaaabbbbb" s;
  let s = Plot.stacked_bar ~width:10 ~segments:[ ('a', 0.9); ('b', 0.9) ] in
  Alcotest.(check int) "clipped at width" 10 (String.length s)

let test_plot_series () =
  let s = Plot.series ~labels:[ "x" ] [ [| 0.0; 1.0 |] ] in
  Alcotest.(check bool) "has legend" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.length l >= 7 && String.sub l 4 7 = "legend:") lines)

(* ------------------------------ Pqueue ----------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3, 30); (1, 10); (2, 20) ];
  Alcotest.(check (option (pair int int))) "peek" (Some (1, 10)) (Pqueue.peek q);
  Alcotest.(check (option (pair int int))) "pop1" (Some (1, 10)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "pop2" (Some (2, 20)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "pop3" (Some (3, 30)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "empty" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1 100;
  Pqueue.push q 1 200;
  Alcotest.(check (option (pair int int))) "fifo" (Some (1, 100)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "fifo2" (Some (1, 200)) (Pqueue.pop q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"Pqueue pops in priority order" ~count:300
    QCheck.(list small_int)
    (fun l ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) l;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare l && Pqueue.is_empty q)

(* the non-allocating accessors (min_prio / min_value / drop_min) must
   observe exactly the sequence pop would return *)
let prop_pqueue_min_accessors =
  QCheck.Test.make ~name:"Pqueue min_prio/min_value/drop_min agree with pop"
    ~count:300
    QCheck.(list small_int)
    (fun l ->
      let q = Pqueue.create () and q' = Pqueue.create () in
      List.iteri
        (fun i p ->
          Pqueue.push q p i;
          Pqueue.push q' p i)
        l;
      let ok = ref true in
      let rec drain () =
        match Pqueue.pop q with
        | None ->
            (* drop_min on an empty heap is a no-op *)
            Pqueue.drop_min q';
            if Pqueue.min_prio q' <> max_int || not (Pqueue.is_empty q') then
              ok := false
        | Some (p, v) ->
            if Pqueue.min_prio q' <> p || Pqueue.min_value q' <> v then
              ok := false;
            Pqueue.drop_min q';
            drain ()
      in
      drain ();
      !ok)

let prop_pqueue_fifo_ties =
  QCheck.Test.make ~name:"Pqueue equal priorities pop in insertion order"
    ~count:300
    QCheck.(list (int_bound 3))
    (fun l ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) l;
      (* within one priority class, the payloads (insertion indices) must
         come out increasing *)
      let last = Hashtbl.create 8 in
      let rec drain ok =
        match Pqueue.pop q with
        | None -> ok
        | Some (p, i) ->
            let fifo =
              match Hashtbl.find_opt last p with None -> true | Some j -> j < i
            in
            Hashtbl.replace last p i;
            drain (ok && fifo)
      in
      drain true)

(* Two domains force one cell while its computation is still running:
   it runs once and both get its value. A computation that raises
   leaves the cell empty, and the next force computes again. *)
let test_once () =
  let runs = Atomic.make 0 in
  let started = Atomic.make false in
  let cell =
    Once.make (fun () ->
        Atomic.incr runs;
        Atomic.set started true;
        Unix.sleepf 0.05;
        ref 42)
  in
  let other = Domain.spawn (fun () -> Once.force cell) in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let mine = Once.force cell in
  let theirs = Domain.join other in
  Alcotest.(check int) "computed once" 1 (Atomic.get runs);
  Alcotest.(check bool) "one value" true (mine == theirs);
  Alcotest.(check bool) "peek sees it" true
    (match Once.peek cell with Some v -> v == mine | None -> false);
  let tries = ref 0 in
  let flaky =
    Once.make (fun () ->
        incr tries;
        if !tries = 1 then failwith "first try" else !tries)
  in
  Alcotest.check_raises "the first force raises" (Failure "first try") (fun () ->
      ignore (Once.force flaky));
  Alcotest.(check (option int)) "still empty" None (Once.peek flaky);
  Alcotest.(check int) "computed again" 2 (Once.force flaky);
  Alcotest.(check int) "and kept" 2 (Once.force flaky)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          qtest prop_rng_int_bounds;
          qtest prop_rng_float_bounds;
          qtest prop_rng_permutation;
          qtest prop_rng_shuffle_multiset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qtest prop_acc_matches_arrays;
          qtest prop_histogram_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "fmt" `Quick test_table_fmt;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ( "analysis-cache",
        [
          Alcotest.test_case "memoizes" `Quick test_cache_memoizes;
          Alcotest.test_case "bounded" `Quick test_cache_bounded;
          Alcotest.test_case "registry" `Quick test_cache_registry;
          Alcotest.test_case "content digest ignores sharing" `Quick
            test_content_digest_ignores_sharing;
        ] );
      ("once", [ Alcotest.test_case "computes once across domains" `Quick test_once ]);
      ( "plot",
        [
          Alcotest.test_case "bar" `Quick test_plot_bar;
          Alcotest.test_case "stacked" `Quick test_plot_stacked;
          Alcotest.test_case "series" `Quick test_plot_series;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          qtest prop_pqueue_sorted;
          qtest prop_pqueue_min_accessors;
          qtest prop_pqueue_fifo_ties;
        ] );
    ]
