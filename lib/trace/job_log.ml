type job = {
  id : int;
  arrival : float;
  size : int;
  run_time : float;
  estimate : float;
}

type t = { name : string; jobs : job array }

(* Each time is checked positively, so NaN fails with the rest; an
   infinite one would never finish or never arrive. *)
let validate_job j =
  if j.size <= 0 then invalid_arg (Printf.sprintf "Job_log: job %d has size %d" j.id j.size);
  if not (Float.is_finite j.run_time && j.run_time > 0.) then
    invalid_arg (Printf.sprintf "Job_log: job %d has run_time %g" j.id j.run_time);
  if not (Float.is_finite j.estimate && j.estimate > 0.) then
    invalid_arg (Printf.sprintf "Job_log: job %d has estimate %g" j.id j.estimate);
  if not (Float.is_finite j.arrival && j.arrival >= 0.) then
    invalid_arg (Printf.sprintf "Job_log: job %d has arrival %g" j.id j.arrival)

let make ~name jobs =
  let arr = Array.of_list jobs in
  Array.iter validate_job arr;
  Array.sort (fun a b -> match compare a.arrival b.arrival with 0 -> Int.compare a.id b.id | c -> c) arr;
  let ids = Hashtbl.create (Array.length arr) in
  Array.iter
    (fun j ->
      if Hashtbl.mem ids j.id then invalid_arg (Printf.sprintf "Job_log: duplicate id %d" j.id);
      Hashtbl.add ids j.id ())
    arr;
  { name; jobs = arr }

let length t = Array.length t.jobs

let span t =
  if length t = 0 then 0.
  else
    let first = t.jobs.(0).arrival in
    let last = Array.fold_left (fun acc j -> max acc (j.arrival +. j.run_time)) 0. t.jobs in
    last -. first

let total_work t = Array.fold_left (fun acc j -> acc +. (float_of_int j.size *. j.run_time)) 0. t.jobs

let offered_load t ~nodes =
  let s = span t in
  if s <= 0. then 0. else total_work t /. (s *. float_of_int nodes)

let scale_runtime t ~c =
  if c <= 0. then invalid_arg "Job_log.scale_runtime: c must be positive";
  {
    name = Printf.sprintf "%s@c=%g" t.name c;
    jobs = Array.map (fun j -> { j with run_time = j.run_time *. c; estimate = j.estimate *. c }) t.jobs;
  }

let filter_max_size t ~max_size =
  { t with jobs = Array.of_list (List.filter (fun j -> j.size <= max_size) (Array.to_list t.jobs)) }

let max_size t = Array.fold_left (fun acc j -> max acc j.size) 0 t.jobs

let pp_stats ppf t =
  let sizes = Array.map (fun j -> float_of_int j.size) t.jobs in
  let runtimes = Array.map (fun j -> j.run_time) t.jobs in
  Format.fprintf ppf "@[<v>log %s: %d jobs, span %.0f s, work %.3g node-s@,size: %a@,run_time: %a@]"
    t.name (length t) (span t) (total_work t)
    Bgl_stats.Summary.pp (Bgl_stats.Summary.of_array sizes)
    Bgl_stats.Summary.pp (Bgl_stats.Summary.of_array runtimes)
