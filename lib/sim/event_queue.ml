type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* slots >= len are dead and hold [dummy] *)
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a entry;
      (* Sentinel written into vacated slots so the heap array never
         retains a popped payload (space leak: the queue lives for the
         whole simulation, the payloads it has popped should not). Its
         payload is an immediate and is never read — slots >= len are
         untouched by the sift loops. *)
}

let create () = { heap = [||]; len = 0; next_seq = 0; dummy = { time = 0.; seq = -1; payload = Obj.magic 0 } }
let is_empty t = t.len = 0

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nheap = Array.make ncap t.dummy in
    Array.blit t.heap 0 nheap 0 t.len;
    t.heap <- nheap
  end

let push_raw t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let push t ~time payload =
  if Bgl_obs.Span.enabled () then
    Bgl_obs.Span.time ~name:"event_queue.push" (fun () -> push_raw t ~time payload)
  else push_raw t ~time payload

let peek t = if t.len = 0 then None else Some (t.heap.(0).time, t.heap.(0).payload)

let pop_raw t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- t.dummy;
    if t.len > 0 then begin
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.heap.(!i) in
          t.heap.(!i) <- t.heap.(!smallest);
          t.heap.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.payload)
  end

let pop t =
  if Bgl_obs.Span.enabled () then Bgl_obs.Span.time ~name:"event_queue.pop" (fun () -> pop_raw t)
  else pop_raw t

let retains t x = Array.exists (fun (e : _ entry) -> e.payload == x) t.heap

let pop_if_at t ~time =
  match peek t with
  | Some (head_time, _) when head_time = time -> Option.map snd (pop t)
  | Some _ | None -> None
