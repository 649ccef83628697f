(* Outside-in timers: wall seconds, minor words and calls accumulated
   around calls into one layer. All fields are floats so the record is
   stored flat and updating it allocates nothing. *)

type t = {
  mutable secs : float;
  mutable words : float;
  mutable calls : float;
}

let create () = { secs = 0.0; words = 0.0; calls = 0.0 }

let now () = Unix.gettimeofday ()

let reset t =
  t.secs <- 0.0;
  t.words <- 0.0;
  t.calls <- 0.0

let record t t0 w0 =
  t.secs <- t.secs +. (now () -. t0);
  t.words <- t.words +. (Gc.minor_words () -. w0);
  t.calls <- t.calls +. 1.0

let time t f =
  let t0 = now () and w0 = Gc.minor_words () in
  match f () with
  | r ->
    record t t0 w0;
    r
  | exception e ->
    record t t0 w0;
    raise e

(* Seconds spent in [f], for untraced measurements. *)
let wall f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum spans = List.fold_left (fun acc s -> acc +. s.secs) 0.0 spans

let sum_words spans = List.fold_left (fun acc s -> acc +. s.words) 0.0 spans
