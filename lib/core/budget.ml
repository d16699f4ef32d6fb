exception Expired

type t = {
  deadline : float option;
  max_candidates : int option;
  stride : int;
  count : int Atomic.t;
  stop : bool Atomic.t;
}

let default_stride = 256

let make ?deadline ?max_candidates ?(stride = default_stride) () =
  if stride < 1 then invalid_arg "Budget.make: stride must be at least 1";
  { deadline; max_candidates; stride; count = Atomic.make 0; stop = Atomic.make false }

let deadline_passed b =
  match b.deadline with None -> false | Some d -> Unix.gettimeofday () > d

let already_expired = deadline_passed

let tick b =
  if Atomic.get b.stop then raise Expired;
  let c = Atomic.fetch_and_add b.count 1 + 1 in
  let expire () =
    Atomic.set b.stop true;
    raise Expired
  in
  (match b.max_candidates with Some m when c > m -> expire () | _ -> ());
  match b.deadline with
  | Some d when c mod b.stride = 0 && Unix.gettimeofday () > d -> expire ()
  | _ -> ()

let explored b =
  let c = Atomic.get b.count in
  match b.max_candidates with Some m -> min c m | None -> c

let expired b = Atomic.get b.stop
