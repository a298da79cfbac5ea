type t = {
  lock : Mutex.t;
  table : (string, string) Hashtbl.t;
  order : string Queue.t;  (** insertion order, for FIFO eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create capacity;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some v ->
          t.hits <- t.hits + 1;
          Some v
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t key value =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        Queue.add key t.order;
        while Queue.length t.order > t.capacity do
          Hashtbl.remove t.table (Queue.take t.order)
        done
      end;
      Hashtbl.replace t.table key value)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
