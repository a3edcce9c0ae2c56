(* The paper's Figures 1 and 2: four traversals of the same matrix.

   (a) row-wise          — locality, no clustering
   (b) column-wise       — clustering, no locality (loop interchange)
   (c) strip-mine + interchange — both
   (d) unroll-and-jam    — both, plus scalar-replacement opportunities

   For each, report L2 misses (locality), the read-MSHR occupancy reached
   (clustering), and execution time.

   Run with: dune exec examples/matrix_traversal.exe *)

open Memclust_util
open Memclust_ir
open Memclust_transform
open Memclust_codegen
open Memclust_sim

let rows = 120
let cols = 128

let total = rows * cols

let make_nest () =
  let open Builder in
  program "traversal"
    ~arrays:[ array_decl "a" total; array_decl "s" rows ]
    [
      loop "j" (cst 0) (cst rows)
        [
          loop "i" (cst 0) (cst cols)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols (ix "j") (ix "i")));
            ];
        ];
    ]

let outer_of p = match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false

let variant name stmts =
  let p = make_nest () in
  (name, Program.renumber { p with Ast.body = stmts })

let variants () =
  let base = make_nest () in
  let j_loop = outer_of base in
  let interchange =
    match Interchange.apply j_loop with
    | Ok st -> st
    | Error e -> failwith ("interchange: " ^ e)
  in
  let strip =
    match Strip_mine.strip_and_interchange ~size:10 j_loop with
    | Ok st -> st
    | Error e -> failwith ("strip-mine: " ^ e)
  in
  let uj =
    match Unroll_jam.apply ~stamp:1 ~factor:10 j_loop with
    | Ok stmts -> stmts
    | Error e -> Format.kasprintf failwith "unroll-and-jam: %a" Unroll_jam.pp_error e
  in
  [
    ("(a) row-wise", Program.renumber base);
    variant "(b) interchange" [ interchange ];
    variant "(c) strip+interchange" [ strip ];
    variant "(d) unroll-and-jam" uj;
  ]

let init data =
  for i = 0 to (rows * cols) - 1 do
    Data.set data "a" i (Ast.Vfloat (float_of_int i))
  done

let () =
  let reference = ref None in
  let rows_out =
    List.map
      (fun (name, p) ->
        let data = Data.create p in
        init data;
        let lowered = Lower.build ~nprocs:1 p data in
        let r = Machine.run Config.base ~home:(fun _ -> 0) lowered in
        (* check all variants compute the same result *)
        (match !reference with
        | None -> reference := Some data
        | Some d -> assert (Data.equal d data));
        let clustering =
          (* fraction of time with 2+ outstanding read misses *)
          Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist 2
        in
        [
          name;
          string_of_int r.Machine.cycles;
          string_of_int r.Machine.l2_misses;
          Table.fmt_float r.Machine.avg_read_miss_latency;
          Table.fmt_pct clustering;
          Table.fmt_float ~decimals:1
            r.Machine.breakdown.Breakdown.data_stall;
        ])
      (variants ())
  in
  print_endline
    "Figure 1/2: the locality-vs-clustering trade-off on one matrix traversal\n";
  Table.print
    ~header:
      [ "traversal"; "cycles"; "L2 misses"; "avg miss lat"; ">=2 misses"; "data stall" ]
    rows_out;
  print_endline
    "\n(a) keeps misses minimal but serial; (b) overlaps misses but loses\n\
     all spatial locality (8x the misses); (c) and (d) get both, as the\n\
     paper argues; (d) additionally enables scalar replacement."
