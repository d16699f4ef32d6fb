open Flowtrace_core

(* FNV-1a, 64-bit. Good dispersion for short config strings and trivially
   portable — this is an identity check, not a cryptographic seal (the
   per-record CRCs catch accidental damage; nothing here defends against
   an adversary editing their own checkpoint files). *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let v ~pool ~buffer_width ~strategy ~n_tasks =
  let pool = Combination.canonical_pool pool in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "flowtrace-select|w=%d|s=%s|t=%d" buffer_width
       (Select.strategy_name strategy) n_tasks);
  List.iter
    (fun (m : Message.t) ->
      Buffer.add_string buf (Printf.sprintf "|%s:%d" m.Message.name (Message.trace_width m)))
    pool;
  Printf.sprintf "%016Lx" (fnv1a64 (Buffer.contents buf))
