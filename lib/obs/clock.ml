(* The fake is domain-local, so a test's fake clock never reaches
   another domain's spans or budgets. *)
type fake = { step : float; mutable reads : int }

let fake : fake option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let now () =
  match !(Domain.DLS.get fake) with
  | None -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  | Some f ->
      f.reads <- f.reads + 1;
      float_of_int f.reads *. f.step

let with_fake ~step f =
  let cell = Domain.DLS.get fake in
  let prev = !cell in
  cell := Some { step; reads = 0 };
  Fun.protect ~finally:(fun () -> cell := prev) f
