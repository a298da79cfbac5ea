(* Instruments are shared between the domains of a parallel sweep, so
   every update path must tolerate concurrent writers: counters and
   gauges are atomics (adds are CAS loops), histograms — multi-field
   updates — take a per-cell mutex, and registration takes a
   per-registry mutex. Reads (values, exposition) are not linearisable
   against concurrent writers; callers export after workers join. *)

type counter_cell = { cv : float Atomic.t }
type gauge_cell = { gv : float Atomic.t }

type hist_cell = {
  bounds : float array;
  counts : int array;  (* length = Array.length bounds + 1; last is +Inf *)
  mutable sum : float;
  mutable observations : int;
  hm : Mutex.t;
}

type counter = No_counter | Counter of counter_cell
type gauge = No_gauge | Gauge of gauge_cell
type histogram = No_histogram | Histogram of hist_cell

type instrument = C of counter_cell | G of gauge_cell | H of hist_cell

type t = Noop | Real of { tbl : (string, string option * instrument) Hashtbl.t; rm : Mutex.t }

let create () = Real { tbl = Hashtbl.create 64; rm = Mutex.create () }
let noop = Noop
let is_noop = function Noop -> true | Real _ -> false

(* [Atomic.compare_and_set] compares physically, so the CAS must be fed
   the very boxed float read by [Atomic.get]. *)
let atomic_addf cell v =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. v)) then go ()
  in
  go ()

let check_name what name =
  if name = "" then invalid_arg (Printf.sprintf "Registry.%s: empty name" what);
  String.iter
    (fun c -> if c = '\n' || c = ' ' then invalid_arg (Printf.sprintf "Registry.%s: invalid name %S" what name))
    name

let register tbl rm what name help make =
  check_name what name;
  Mutex.protect rm (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (_, instr) -> instr
      | None ->
          let instr = make () in
          Hashtbl.replace tbl name (help, instr);
          instr)

let kind_clash what name =
  invalid_arg (Printf.sprintf "Registry.%s: %S already registered as another kind" what name)

let counter t ?help name =
  match t with
  | Noop -> No_counter
  | Real { tbl; rm } -> (
      match register tbl rm "counter" name help (fun () -> C { cv = Atomic.make 0. }) with
      | C cell -> Counter cell
      | G _ | H _ -> kind_clash "counter" name)

let inc = function No_counter -> () | Counter c -> atomic_addf c.cv 1.

let add counter v =
  match counter with
  | No_counter -> ()
  | Counter c ->
      if v < 0. then invalid_arg "Registry.add: counters only increase";
      atomic_addf c.cv v

let counter_value = function No_counter -> 0. | Counter c -> Atomic.get c.cv

let gauge t ?help name =
  match t with
  | Noop -> No_gauge
  | Real { tbl; rm } -> (
      match register tbl rm "gauge" name help (fun () -> G { gv = Atomic.make 0. }) with
      | G cell -> Gauge cell
      | C _ | H _ -> kind_clash "gauge" name)

let set g v = match g with No_gauge -> () | Gauge cell -> Atomic.set cell.gv v
let gauge_value = function No_gauge -> 0. | Gauge cell -> Atomic.get cell.gv

let default_buckets = [| 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1e3; 1e4; 1e5 |]

let histogram t ?help ?(buckets = default_buckets) name =
  if String.contains name '{' then invalid_arg "Registry.histogram: labelled names unsupported";
  if Array.length buckets = 0 then invalid_arg "Registry.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Registry.histogram: buckets must be strictly increasing")
    buckets;
  match t with
  | Noop -> No_histogram
  | Real { tbl; rm } -> (
      let make () =
        H
          {
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            sum = 0.;
            observations = 0;
            hm = Mutex.create ();
          }
      in
      match register tbl rm "histogram" name help make with
      | H cell -> Histogram cell
      | C _ | G _ -> kind_clash "histogram" name)

let observe h v =
  match h with
  | No_histogram -> ()
  | Histogram cell ->
      let n = Array.length cell.bounds in
      let rec slot i = if i = n || v <= cell.bounds.(i) then i else slot (i + 1) in
      let i = slot 0 in
      Mutex.protect cell.hm (fun () ->
          cell.counts.(i) <- cell.counts.(i) + 1;
          cell.sum <- cell.sum +. v;
          cell.observations <- cell.observations + 1)

(* ------------------------------------------------------------------ *)
(* Exposition *)

let base_name name = match String.index_opt name '{' with None -> name | Some i -> String.sub name 0 i

let sorted_series tbl =
  Hashtbl.fold (fun name (help, instr) acc -> (name, help, instr) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* Prometheus floats: integral values print without a fraction so
   counters read naturally; everything else keeps full precision. *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let to_prometheus t =
  match t with
  | Noop -> ""
  | Real { tbl; _ } ->
      let buf = Buffer.create 1024 in
      let last_base = ref "" in
      List.iter
        (fun (name, help, instr) ->
          let base = base_name name in
          if base <> !last_base then begin
            last_base := base;
            (match help with
            | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base h)
            | None -> ());
            Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base (kind_name instr))
          end;
          match instr with
          | C { cv } -> Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_value (Atomic.get cv)))
          | G { gv } -> Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_value (Atomic.get gv)))
          | H h ->
              let cumulative = ref 0 in
              Array.iteri
                (fun i bound ->
                  cumulative := !cumulative + h.counts.(i);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" name bound !cumulative))
                h.bounds;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.observations);
              Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (fmt_value h.sum));
              Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.observations))
        (sorted_series tbl);
      Buffer.contents buf

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  match t with
  | Noop -> "name,kind,value\n"
  | Real { tbl; _ } ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "name,kind,value\n";
      let row name kind value =
        Buffer.add_string buf (Printf.sprintf "%s,%s,%s\n" (csv_field name) kind value)
      in
      List.iter
        (fun (name, _, instr) ->
          match instr with
          | C { cv } -> row name "counter" (fmt_value (Atomic.get cv))
          | G { gv } -> row name "gauge" (fmt_value (Atomic.get gv))
          | H h ->
              let cumulative = ref 0 in
              Array.iteri
                (fun i bound ->
                  cumulative := !cumulative + h.counts.(i);
                  row (Printf.sprintf "%s_bucket{le=\"%g\"}" name bound) "histogram"
                    (string_of_int !cumulative))
                h.bounds;
              row (Printf.sprintf "%s_bucket{le=\"+Inf\"}" name) "histogram"
                (string_of_int h.observations);
              row (name ^ "_sum") "histogram" (fmt_value h.sum);
              row (name ^ "_count") "histogram" (string_of_int h.observations))
        (sorted_series tbl);
      Buffer.contents buf
