type error = { message : string; attempts : int; transient : bool }
type 'a outcome = Completed of { value : 'a; attempts : int } | Quarantined of error

type policy = {
  max_attempts : int;
  backoff : int -> float;
  sleep : float -> unit;
  retryable : exn -> bool;
  budget : (unit -> Budget.t) option;
}

let exponential ~base n = base *. (2. ** float_of_int (n - 1))

let default =
  {
    max_attempts = 3;
    backoff = exponential ~base:0.05;
    sleep = Unix.sleepf;
    retryable = (function Budget.Budget_exceeded _ -> false | _ -> true);
    budget = None;
  }

let run policy f =
  if policy.max_attempts < 1 then invalid_arg "Supervise.run: max_attempts must be >= 1";
  let budget () = Option.map (fun mk -> mk ()) policy.budget in
  let rec attempt n =
    match Budget.with_budget (budget ()) f with
    | v -> Completed { value = v; attempts = n }
    | exception e ->
        let transient = policy.retryable e in
        if transient && n < policy.max_attempts then begin
          let delay = policy.backoff n in
          if delay > 0. then policy.sleep delay;
          attempt (n + 1)
        end
        else Quarantined { message = Printexc.to_string e; attempts = n; transient }
  in
  attempt 1

(* ------------------------------------------------------------------ *)

type degradation = {
  total : int;
  completed : int;
  retried : int;
  quarantined : (int * error) list;
}

let degradation_of outcomes =
  let completed = ref 0 and retried = ref 0 and quarantined = ref [] in
  Array.iteri
    (fun i -> function
      | Completed { attempts; _ } ->
          incr completed;
          if attempts > 1 then incr retried
      | Quarantined e -> quarantined := (i, e) :: !quarantined)
    outcomes;
  {
    total = Array.length outcomes;
    completed = !completed;
    retried = !retried;
    quarantined = List.rev !quarantined;
  }

let degraded d = d.quarantined <> []

let pp_degradation ppf d =
  Format.fprintf ppf "%d/%d cells completed (%d retried, %d quarantined)" d.completed d.total
    d.retried
    (List.length d.quarantined);
  List.iter
    (fun (i, e) ->
      Format.fprintf ppf "@.  cell %d: %s after %d attempt%s%s" i e.message e.attempts
        (if e.attempts = 1 then "" else "s")
        (if e.transient then "" else " (permanent)"))
    d.quarantined
