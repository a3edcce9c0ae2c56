(* Ablation of the paper's f <= alpha*lp rule (§3.2.2).

   Sweep the unroll-and-jam degree by hand on the Figure 2 kernel, print
   the analytical f next to the measured speedup and MSHR occupancy, and
   mark the degree the driver's binary search would pick. The sweet spot
   the rule predicts — fill the 10 MSHRs, then stop — is visible in the
   measurements: beyond it, extra unrolling only adds contention, code
   size and conflict misses.

   Run with: dune exec examples/transform_explorer.exe *)

open Memclust_util
open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_transform
open Memclust_cluster
open Memclust_codegen
open Memclust_sim

let rows = 192
let cols = 128

let total = rows * cols

let make_nest () =
  let open Builder in
  program "explorer"
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

let init data =
  for i = 0 to (rows * cols) - 1 do
    Data.set data "a" i (Ast.Vfloat (float_of_int i))
  done

let f_of p =
  let loc = Locality.analyze ~line_size:64 p in
  let rec inner (l : Ast.loop) : Ast.loop =
    match
      List.find_map (function Ast.Loop l' -> Some l' | _ -> None) l.Ast.body
    with
    | Some l' -> inner l'
    | None -> l
  in
  match p.Ast.body with
  | Ast.Loop l :: _ ->
      let il = inner l in
      let graph = Depgraph.analyze loc (Depgraph.Counted il) in
      let fest =
        Festimate.compute Machine_model.base loc ~pm:(fun _ -> 1.0) ~graph
          (Depgraph.Counted il)
      in
      fest.Festimate.f
  | _ -> 0.0

let () =
  let base = make_nest () in
  let base_cycles = ref 0 in
  let rows_out =
    List.filter_map
      (fun factor ->
        let j_loop =
          match base.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false
        in
        match Unroll_jam.apply ~stamp:1 ~factor j_loop with
        | Error _ -> None
        | Ok stmts ->
            let p = Program.renumber { base with Ast.body = stmts } in
            let data = Data.create p in
            init data;
            let lowered = Lower.build ~nprocs:1 p data in
            let r = Machine.run Config.base ~home:(fun _ -> 0) lowered in
            if factor = 1 then base_cycles := r.Machine.cycles;
            let speedup = float_of_int !base_cycles /. float_of_int r.Machine.cycles in
            Some
              [
                string_of_int factor;
                Table.fmt_float (f_of p);
                string_of_int r.Machine.cycles;
                Table.fmt_float speedup ^ "x";
                Table.fmt_pct
                  (Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist 4);
                string_of_int r.Machine.l2_misses;
              ])
      [ 1; 2; 3; 4; 6; 8; 10; 12; 16 ]
  in
  print_endline "Unroll-and-jam degree sweep on the Figure 2 kernel\n";
  Table.print
    ~header:[ "degree"; "f"; "cycles"; "speedup"; ">=4 misses"; "L2 misses" ]
    rows_out;
  (* what would the driver choose? *)
  let _, report = Driver.run ~options:{ Driver.default_options with profile_pm = false } base in
  Format.printf "@.driver's choice: %a@." Driver.pp_report report;
  print_endline
    "\nThe f column tracks the measured clustering; the rule stops once f\n\
     reaches lp = 10 — later degrees buy nothing but contention."
