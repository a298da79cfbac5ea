type t = {
  by_node : (int, float array) Hashtbl.t;  (* sorted event times per node *)
  all : Bgl_trace.Failure_log.event array;  (* sorted by time *)
}

let of_log (log : Bgl_trace.Failure_log.t) =
  let tmp = Hashtbl.create 64 in
  Array.iter
    (fun (e : Bgl_trace.Failure_log.event) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt tmp e.node) in
      Hashtbl.replace tmp e.node (e.time :: existing))
    log.events;
  let by_node = Hashtbl.create (Hashtbl.length tmp) in
  Hashtbl.iter
    (fun node times ->
      let arr = Array.of_list (List.rev times) in
      Array.sort compare arr;
      Hashtbl.replace by_node node arr)
    tmp;
  { by_node; all = Array.copy log.events }

(* Index of the first element strictly greater than [x], or length. *)
let upper_bound arr x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length arr)

let first_failure_in t ~node ~t0 ~t1 =
  match Hashtbl.find_opt t.by_node node with
  | None -> None
  | Some times ->
      let i = upper_bound times t0 in
      if i < Array.length times && times.(i) <= t1 then Some times.(i) else None

let has_failure_in t ~node ~t0 ~t1 = first_failure_in t ~node ~t0 ~t1 <> None

let count_in t ~node ~t0 ~t1 =
  match Hashtbl.find_opt t.by_node node with
  | None -> 0
  | Some times -> max 0 (upper_bound times t1 - upper_bound times t0)

let next_event_after t ~after =
  (* t.all is sorted by (time, node); binary search on time. *)
  let n = Array.length t.all in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.all.(mid).time <= after then go (mid + 1) hi else go lo mid
  in
  let i = go 0 n in
  if i < n then Some (t.all.(i).time, t.all.(i).node) else None

let events_at t ~time =
  Array.fold_left
    (fun acc (e : Bgl_trace.Failure_log.event) -> if e.time = time then e.node :: acc else acc)
    [] t.all
  |> List.sort Int.compare
