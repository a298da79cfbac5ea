type cell = { mutable count : int; mutable total : float; mutable max : float }

(* Accumulation is domain-local so the domains of a parallel sweep
   never contend (or race) on one table; every domain's table is
   registered here on first use so {!stats} can merge them after the
   workers join. Tables of finished domains stay registered — their
   spans still belong in the profile. *)
let all_tables : (string, cell) Hashtbl.t list ref = ref []
let all_tables_mutex = Mutex.create ()

let table_key : (string, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let t = Hashtbl.create 64 in
      Mutex.protect all_tables_mutex (fun () -> all_tables := t :: !all_tables);
      t)

let on = Atomic.make false

let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let cell name =
  let table = Domain.DLS.get table_key in
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
      let c = { count = 0; total = 0.; max = 0. } in
      Hashtbl.replace table name c;
      c

let record name dt =
  let c = cell name in
  c.count <- c.count + 1;
  c.total <- c.total +. dt;
  if dt > c.max then c.max <- dt

let time ~name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> record name (Clock.now () -. t0)) f
  end

type stat = {
  name : string;
  count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
}

let stats () =
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  Mutex.protect all_tables_mutex (fun () ->
      List.iter
        (fun table ->
          Hashtbl.iter
            (fun name (c : cell) ->
              match Hashtbl.find_opt merged name with
              | Some m ->
                  m.count <- m.count + c.count;
                  m.total <- m.total +. c.total;
                  if c.max > m.max then m.max <- c.max
              | None ->
                  Hashtbl.replace merged name { count = c.count; total = c.total; max = c.max })
            table)
        !all_tables);
  Hashtbl.fold
    (fun name (c : cell) acc ->
      { name;
        count = c.count;
        total_s = c.total;
        mean_s = (if c.count = 0 then 0. else c.total /. float_of_int c.count);
        max_s = c.max }
      :: acc)
    merged []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let export reg =
  List.iter
    (fun s ->
      let series prefix v =
        Registry.set (Registry.gauge reg (Printf.sprintf "%s{span=%S}" prefix s.name)) v
      in
      series "bgl_span_seconds_total" s.total_s;
      series "bgl_span_calls" (float_of_int s.count);
      series "bgl_span_max_seconds" s.max_s)
    (stats ())

let pp_profile ppf () =
  match stats () with
  | [] -> Format.fprintf ppf "no spans recorded (enable with Span.set_enabled)"
  | l ->
      Format.fprintf ppf "@[<v>%-36s %10s %12s %12s %12s@," "span" "calls" "total ms" "mean us"
        "max us";
      List.iter
        (fun s ->
          Format.fprintf ppf "%-36s %10d %12.2f %12.2f %12.2f@," s.name s.count
            (s.total_s *. 1e3) (s.mean_s *. 1e6) (s.max_s *. 1e6))
        l;
      Format.fprintf ppf "@]"
