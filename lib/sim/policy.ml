open Bgl_torus
module Cache = Bgl_partition.Finder.Cache

type ctx = {
  now : float;
  grid : Grid.t;
  cache : Cache.t;
  mfp_before : int Lazy.t;
  mfp_boxes : Box.t list Lazy.t;
}

type t = {
  name : string;
  choose :
    ctx -> job:Bgl_trace.Job_log.job -> volume:int -> candidates:Box.t list -> Box.t option;
}

let make_ctx ?cache ~now grid =
  let cache =
    match cache with Some c when Cache.grid c == grid -> c | _ -> Cache.create grid
  in
  let mfp_before = lazy (Bgl_partition.Mfp.volume ~cache grid) in
  let mfp_boxes =
    lazy
      (let v = Lazy.force mfp_before in
       if v = 0 then [] else Cache.find cache ~volume:v)
  in
  { now; grid; cache; mfp_before; mfp_boxes }
