type snapshot = { sim_time : float; queue_depth : int; running : int; free_nodes : int }

type t = {
  every : int;
  out : Format.formatter;
  m : Mutex.t;  (* one heartbeat may be shared by every worker domain *)
  mutable events : int;
  mutable last_wall : float;
  mutable last_events : int;
  mutable last_snapshot : snapshot option;
}

let create ?(out = Format.err_formatter) ~every () =
  if every < 1 then invalid_arg "Heartbeat.create: every must be >= 1";
  {
    every;
    out;
    m = Mutex.create ();
    events = 0;
    last_wall = Clock.now ();
    last_events = 0;
    last_snapshot = None;
  }

let tick t snapshot =
  Mutex.protect t.m (fun () ->
      t.events <- t.events + 1;
      if t.events mod t.every = 0 then begin
        let s = snapshot () in
        let wall = Clock.now () in
        let dt = wall -. t.last_wall in
        let rate =
          if dt > 0. then float_of_int (t.events - t.last_events) /. dt else Float.infinity
        in
        t.last_wall <- wall;
        t.last_events <- t.events;
        t.last_snapshot <- Some s;
        Format.fprintf t.out "[obs] events=%d sim_t=%.1f queue=%d running=%d free=%d ev/s=%.0f@."
          t.events s.sim_time s.queue_depth s.running s.free_nodes rate
      end)

let last t = Mutex.protect t.m (fun () -> t.last_snapshot)
