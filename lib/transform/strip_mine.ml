open Memclust_ir
open Ast

let strip ?(params = []) ~size (l : loop) =
  if size <= 1 then Ok (Loop l)
  else begin
    match Legality.trip ~params l with
    | None -> Error "loop bounds are not constant under the parameters"
    | Some (_, count) ->
        let s = l.step in
        if count mod size <> 0 then
          Error "trip count is not divisible by the strip size"
        else begin
          let jj = l.var ^ "$strip" in
          let strip_loop =
            Loop
              {
                var = l.var;
                lo = Affine.var jj;
                hi = Affine.add (Affine.var jj) (Affine.const (size * s));
                step = s;
                parallel = false;
                body = l.body;
              }
          in
          Ok
            (Loop
               {
                 var = jj;
                 lo = l.lo;
                 hi = l.hi;
                 step = s * size;
                 parallel = l.parallel;
                 body = [ strip_loop ];
               })
        end
  end

let strip_and_interchange ?(params = []) ?(outer_ranges = []) ~size (l : loop) =
  match l.body with
  | [ Loop _ ] -> (
      match strip ~params ~size l with
      | Error _ as e -> e
      | Ok (Loop outer) -> (
          (* outer = jj-loop containing [strip_loop [inner]]; interchange
             the strip loop with the original inner loop *)
          match outer.body with
          | [ Loop strip_l ] -> (
              match Interchange.apply ~params ~outer_ranges strip_l with
              | Error _ as e -> e
              | Ok swapped -> Ok (Loop { outer with body = [ swapped ] }))
          | _ -> Error "internal: unexpected strip structure")
      | Ok _ -> Error "internal: unexpected strip result")
  | _ -> Error "not a perfect loop nest"
