let recommended () = Domain.recommended_domain_count ()

(* Worker domains are spawned once and reused across batches: a
   long-running service must not pay a spawn per request, and a CLI
   sweep is just one batch. Inside a batch every domain (the submitter
   included) grabs the next unclaimed cell from a shared atomic cursor,
   so load balances itself whatever the per-cell cost spread. *)

type batch = {
  n : int;
  cell : int -> unit;
  next : int Atomic.t;
  completed : int Atomic.t;
  obs : Bgl_obs.Runtime.snapshot;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* workers wait here for a new batch *)
  finished : Condition.t;  (* submitters wait here for batch completion *)
  mutable batch : batch option;
  mutable generation : int;  (* bumped per batch; a worker joins each generation once *)
  mutable stop : bool;
  size : int;
  mutable workers : unit Domain.t array;
}

let size t = t.size

let finish_cell t b =
  if Atomic.fetch_and_add b.completed 1 = b.n - 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.finished;
    Mutex.unlock t.lock
  end

let claim t b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.cell i;
      finish_cell t b;
      go ()
    end
  in
  go ()

let worker t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && (t.batch = None || t.generation = !seen) do
      Condition.wait t.work t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let b = Option.get t.batch in
      seen := t.generation;
      Mutex.unlock t.lock;
      (* Each batch carries the submitter's observability config so
         metrics/traces from worker domains land in the right place
         whatever was reconfigured between batches. *)
      Bgl_obs.Runtime.install b.obs;
      claim t b;
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
      size = domains;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* [cell i] must store its own result and must not raise; returns once
   every [i < n] has run. *)
let run_batch t ~n cell =
  if n > 0 then begin
    let b =
      { n; cell; next = Atomic.make 0; completed = Atomic.make 0; obs = Bgl_obs.Runtime.snapshot () }
    in
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool: pool is shut down"
    end;
    while t.batch <> None do
      Condition.wait t.finished t.lock
    done;
    t.batch <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The submitter claims cells too: with [domains = 1] no worker
       domain exists and the batch runs entirely here. *)
    claim t b;
    Mutex.lock t.lock;
    while Atomic.get b.completed < n do
      Condition.wait t.finished t.lock
    done;
    t.batch <- None;
    (* Wake any submitter queued behind this batch for the slot. *)
    Condition.broadcast t.finished;
    Mutex.unlock t.lock
  end

(* Run every item under Supervise, store outcomes in item order, stream
   completions, export degradation counters. *)
let map_supervised t ?(policy = Bgl_resilience.Supervise.default) ?on_complete f items =
  let open Bgl_resilience in
  let n = Array.length items in
  let outcomes =
    Array.make n
      (Supervise.Quarantined { message = "unclaimed"; attempts = 0; transient = false })
  in
  run_batch t ~n (fun i ->
      let outcome =
        Supervise.run policy (fun () ->
            Failpoint.hit ~index:i "pool.cell";
            f items.(i))
      in
      outcomes.(i) <- outcome;
      match (outcome, on_complete) with
      | Supervise.Completed { value; _ }, Some cb -> cb i value
      | _ -> ());
  let degradation = Supervise.degradation_of outcomes in
  let reg = Bgl_obs.Runtime.registry () in
  if not (Bgl_obs.Registry.is_noop reg) then begin
    let count outcome v =
      Bgl_obs.Registry.add
        (Bgl_obs.Registry.counter reg ~help:"supervised sweep cells by outcome"
           (Printf.sprintf "bgl_pool_cells_total{outcome=%S}" outcome))
        (float_of_int v)
    in
    count "completed" degradation.Supervise.completed;
    count "retried" degradation.Supervise.retried;
    count "quarantined" (List.length degradation.Supervise.quarantined)
  end;
  (outcomes, degradation)

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]
