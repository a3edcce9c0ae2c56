type t =
  | Config_invalid of { config : string; reason : string }
  | Sim_deadlock of {
      cycle : int;
      mode : string;
      reason : string;
      state_dump : string;
    }
  | Worker_crashed of { task : string; attempts : int; reason : string }

exception Error of t

let kind = function
  | Config_invalid _ -> "config-invalid"
  | Sim_deadlock _ -> "sim-deadlock"
  | Worker_crashed _ -> "worker-crashed"

let pp ppf = function
  | Config_invalid { config; reason } ->
      Format.fprintf ppf "invalid config %S: %s" config reason
  | Sim_deadlock { cycle; mode; reason; state_dump } ->
      Format.fprintf ppf "simulator deadlock at cycle %d (%s mode): %s" cycle
        mode reason;
      if state_dump <> "" then Format.fprintf ppf "@\n%s" state_dump
  | Worker_crashed { task; attempts; reason } ->
      Format.fprintf ppf "worker crashed on task %S after %d attempt%s: %s"
        task attempts
        (if attempts = 1 then "" else "s")
        reason

let to_string e = Format.asprintf "%a" pp e

let raise_err e = raise (Error e)

let of_exn ~task ?(attempts = 1) = function
  | Error e -> e
  | exn -> Worker_crashed { task; attempts; reason = Printexc.to_string exn }

let guard ~task f =
  match f () with
  | v -> Ok v
  | exception Error e -> Result.Error e
  | exception exn -> Result.Error (of_exn ~task exn)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Memclust_error: " ^ to_string e)
    | _ -> None)
