open Bgl_torus

(* ------------------------------------------------------------------ *)
(* Scale selection: at [summary_gate_volume] and above every scan first
   consults the grid's Summary to reject shapes without enumerating
   bases — on the full 64x32x32 machine a shape has up to 65,536 bases,
   so the O(nx + ny + nz + #blocks) summary probe is the difference
   between a feasibility check and a machine-size scan. Below the gate
   the probe would cost more than the scan it saves. *)

let summary_gate_volume = 512

let summary_gated grid = Grid.volume grid >= summary_gate_volume

let shape_possible grid shape =
  (not (summary_gated grid))
  || Summary.shape_feasible (Grid.summary grid) ~wrap:(Grid.wrap grid) shape

(* Inclusive upper base bound along one axis: every coordinate with
   wraparound (collapsed to 0 when the shape spans the whole axis), or
   only non-overflowing bases without. *)
let base_hi ~wrap extent dim =
  if wrap then if extent = dim then 0 else dim - 1 else dim - extent

(* Non-allocating base enumeration, x fastest, then y, then z: at full
   machine scale a single shape has ~65k bases, so nothing
   materialises them. *)
let iter_bases (d : Dims.t) ~wrap (s : Shape.t) ~f =
  let x_hi = base_hi ~wrap s.sx d.nx
  and y_hi = base_hi ~wrap s.sy d.ny
  and z_hi = base_hi ~wrap s.sz d.nz in
  for z = 0 to z_hi do
    for y = 0 to y_hi do
      for x = 0 to x_hi do
        f x y z
      done
    done
  done

let sort_boxes = List.sort Box.compare

(* ------------------------------------------------------------------ *)
(* Production scans over a summed-area table. The table argument is
   lazy so a query whose every shape is rejected by the summary never
   builds or syncs the table at all — the common case for ghost-grid
   feasibility probes on a busy machine. [Prefix.box_is_free] syncs
   internally, so force order does not matter for correctness.
   [~gate:false] is the differential reference's independent path. *)

let find_prefix_scan ?(gate = true) grid table ~volume =
  let d = Grid.dims grid in
  let wrap = Grid.wrap grid in
  let acc = ref [] in
  List.iter
    (fun shape ->
      if (not gate) || shape_possible grid shape then begin
        let tbl = Lazy.force table in
        iter_bases d ~wrap shape ~f:(fun x y z ->
            let box = Box.make (Coord.make x y z) shape in
            if Prefix.box_is_free tbl box then acc := box :: !acc)
      end)
    (Shapes.shapes_of_volume d volume);
  sort_boxes !acc

exception Found_base

let exists_base_free table d ~wrap shape =
  try
    iter_bases d ~wrap shape ~f:(fun x y z ->
        if Prefix.box_is_free table (Box.make (Coord.make x y z) shape) then raise Found_base);
    false
  with Found_base -> true

let exists_free_scan grid table ~volume =
  let d = Grid.dims grid in
  let wrap = Grid.wrap grid in
  List.exists
    (fun shape -> shape_possible grid shape && exists_base_free (Lazy.force table) d ~wrap shape)
    (Shapes.shapes_of_volume d volume)

(* ------------------------------------------------------------------ *)
(* Counted enumeration: answer capped candidate queries without ever
   materialising the full box list. A first pass computes the exact
   number of free boxes based in every (z, y) row — O(1) summed-area
   queries per row in the common all-free case via the ribbon trick
   below, with whole planes and rows skipped through the grid summary —
   and a second pass walks only the rows holding the selected ranks
   and emits those boxes directly.

   The load-bearing invariant is that both passes enumerate in exactly
   the order of [Cache.find]'s sorted list: [Box.compare] orders by
   base (z, then y, then x — [Coord.compare]) and then by shape
   ([Shape.compare]), so rows ascend in (z, y), bases within a row
   ascend in x, and shapes within a base follow [Shapes.shapes_of_volume],
   which is sorted by [Shape.compare]. Under that invariant the rank-r
   box of the counted walk IS element r of that list, so the engine's
   deterministic even subsample [i*n/cap] reproduces byte-identically
   — proven by the qcheck equivalence layer and the differential
   oracle rather than trusted. *)

type counted_shape = {
  cs : Shape.t;
  cx_hi : int;  (* inclusive base bounds, as in [iter_bases] *)
  cy_hi : int;
  cz_hi : int;
  (* Per-axis feasible-start masks from the summary (None when the
     grid is below the gating threshold): [false] at a coordinate is a
     proof no free box of the shape can be based there, so skipping on
     it never changes a count. *)
  cz_ok : bool array option;
  cy_ok : bool array option;
}

type count_plan = {
  p_shapes : counted_shape array;
  p_rows : int array;  (* (z * ny + y) -> free boxes based in that row *)
  p_total : int;
  p_skips : int;  (* shapes + base rows the summary ruled out *)
}

let plane_ok mask i = match mask with None -> true | Some m -> m.(i)

let counted_shapes grid ~volume ~skips =
  let d = Grid.dims grid in
  let wrap = Grid.wrap grid in
  let gated = summary_gated grid in
  let summary = Grid.summary grid in
  List.filter_map
    (fun (s : Shape.t) ->
      if gated && not (Summary.shape_feasible summary ~wrap s) then begin
        incr skips;
        None
      end
      else
        Some
          {
            cs = s;
            cx_hi = base_hi ~wrap s.sx d.nx;
            cy_hi = base_hi ~wrap s.sy d.ny;
            cz_hi = base_hi ~wrap s.sz d.nz;
            cz_ok =
              (if gated then
                 Some
                   (Summary.feasible_starts summary ~wrap ~axis:`Z ~extent:s.sz
                      ~threshold:(s.sx * s.sy))
               else None);
            cy_ok =
              (if gated then
                 Some
                   (Summary.feasible_starts summary ~wrap ~axis:`Y ~extent:s.sy
                      ~threshold:(s.sx * s.sz))
               else None);
          })
    (Shapes.shapes_of_volume d volume)

(* Count pass. The ribbon trick: the box based at (lo, y, z) spanning
   x extent hi - lo + sx has zero occupied cells iff every cell any
   box based in [lo, hi] of that row could touch is free — in which
   case all hi - lo + 1 bases count from one O(1) summed-area query.
   (With wraparound the ribbon may cover some cells twice in the
   doubled prefix space; double-counting cannot make an all-free
   ribbon nonzero or an occupied one zero, so the test is exact.) An
   occupied ribbon bisects, so clustered occupancy — the scheduler's
   steady state of a few job boxes on a mostly free machine — costs
   O(log nx) splits per cluster boundary instead of a per-base scan;
   a fully free row stays a single query. *)
let count_plan grid table ~volume =
  let d = Grid.dims grid in
  let skips = ref 0 in
  let shapes = Array.of_list (counted_shapes grid ~volume ~skips) in
  let rows = Array.make (d.ny * d.nz) 0 in
  let total = ref 0 in
  Array.iter
    (fun c ->
      let s = c.cs in
      let tbl = Lazy.force table in
      let row_full = c.cx_hi + 1 in
      let credit y z n =
        if n > 0 then begin
          rows.((z * d.ny) + y) <- rows.((z * d.ny) + y) + n;
          total := !total + n
        end
      in
      (* The same ribbon test applied at every level of the (z, y, x)
         nesting: the slab based at the range's low corner, extended by
         the shape along each spanned axis, covers every cell any box
         based in the range could touch, so occupied = 0 proves every
         base in the range hosts a free box — the whole range resolves
         in one O(1) query, and an occupied slab bisects. A feasibility
         mask cannot contradict a free slab (a masked start has an
         occupied node in every would-be box), so the fast path never
         needs to consult the masks; they are checked only when the
         recursion bottoms out on single planes and rows. *)
      let rec count_x y z lo hi =
        if Prefix.occupied_in_range tbl ~x0:lo ~y0:y ~z0:z ~sx:(hi - lo + s.sx) ~sy:s.sy ~sz:s.sz = 0
        then hi - lo + 1
        else if lo = hi then 0 (* the ribbon IS the base's box *)
        else
          let mid = (lo + hi) / 2 in
          count_x y z lo mid + count_x y z (mid + 1) hi
      in
      let row y z = if plane_ok c.cy_ok y then credit y z (count_x y z 0 c.cx_hi) else incr skips in
      let rec count_y z lo hi =
        if
          Prefix.occupied_in_range tbl ~x0:0 ~y0:lo ~z0:z ~sx:(c.cx_hi + s.sx)
            ~sy:(hi - lo + s.sy) ~sz:s.sz
          = 0
        then
          for y = lo to hi do
            credit y z row_full
          done
        else if lo = hi then row lo z
        else begin
          let mid = (lo + hi) / 2 in
          count_y z lo mid;
          count_y z (mid + 1) hi
        end
      in
      let plane z = if plane_ok c.cz_ok z then count_y z 0 c.cy_hi else incr skips in
      let rec count_z lo hi =
        if
          Prefix.occupied_in_range tbl ~x0:0 ~y0:0 ~z0:lo ~sx:(c.cx_hi + s.sx)
            ~sy:(c.cy_hi + s.sy) ~sz:(hi - lo + s.sz)
          = 0
        then
          for z = lo to hi do
            for y = 0 to c.cy_hi do
              credit y z row_full
            done
          done
        else if lo = hi then plane lo
        else begin
          let mid = (lo + hi) / 2 in
          count_z lo mid;
          count_z (mid + 1) hi
        end
      in
      count_z 0 c.cz_hi)
    shapes;
  { p_shapes = shapes; p_rows = rows; p_total = !total; p_skips = !skips }

(* Select pass: walk rows in (z, y) order, using the per-row counts to
   skip whole rows by rank arithmetic, and probe bases (x ascending,
   shapes in sorted order) only inside rows that hold a target rank.
   [targets] must be strictly increasing. *)
let select_from_plan plan grid table ~targets =
  let d = Grid.dims grid in
  let n_targets = Array.length targets in
  let acc = ref [] in
  let ti = ref 0 in
  let rank = ref 0 in
  let nrows = Array.length plan.p_rows in
  let r = ref 0 in
  while !ti < n_targets && !r < nrows do
    let rc = plan.p_rows.(!r) in
    if rc > 0 then begin
      let row_end = !rank + rc in
      if targets.(!ti) < row_end then begin
        let z = !r / d.ny and y = !r mod d.ny in
        let tbl = Lazy.force table in
        for x = 0 to d.nx - 1 do
          if !ti < n_targets && targets.(!ti) < row_end then
            Array.iter
              (fun c ->
                if
                  x <= c.cx_hi && y <= c.cy_hi && z <= c.cz_hi
                  && plane_ok c.cz_ok z && plane_ok c.cy_ok y
                  && Prefix.box_is_free tbl (Box.make (Coord.make x y z) c.cs)
                then begin
                  if !ti < n_targets && targets.(!ti) = !rank then begin
                    acc := Box.make (Coord.make x y z) c.cs :: !acc;
                    incr ti
                  end;
                  incr rank
                end)
              plan.p_shapes
        done
      end;
      rank := row_end
    end;
    incr r
  done;
  List.rev !acc

(* The engine's historical cap semantics, reproduced exactly: identity
   below the cap, else the deterministic even subsample over sorted
   ranks. Strictly increasing when n > cap because consecutive targets
   differ by at least floor(n/cap) >= 1. *)
let even_targets ~n ~cap =
  if n <= cap then Array.init n Fun.id else Array.init cap (fun i -> i * n / cap)

let counted_span name f =
  if Bgl_obs.Span.enabled () then Bgl_obs.Span.time ~name f else f ()

let count_scan grid table ~volume =
  counted_span "finder.count.scan" (fun () -> count_plan grid table ~volume)

let select_scan grid table ~volume ~cap =
  let plan = count_scan grid table ~volume in
  let targets = even_targets ~n:plan.p_total ~cap in
  let boxes =
    counted_span "finder.count.select" (fun () -> select_from_plan plan grid table ~targets)
  in
  (plan, boxes)

(* ------------------------------------------------------------------ *)
(* The paper's Appendix 9 finders, kept as the oracle the production
   scans are validated against. None of them shares the summed-area
   table, the summary gate or the counted walk. *)

module Reference = struct
  type algo = Naive | Pop | Shape_search

  let all = [ Naive; Pop; Shape_search ]
  let name = function Naive -> "naive" | Pop -> "pop" | Shape_search -> "shape-search"

  (* Node-by-node freeness with early exit: the practical reading of
     the appendix's "no need to search further once we hit the value
     for that dimension". *)
  let box_free_scan grid (box : Box.t) =
    let d = Grid.dims grid in
    let b = box.base and s = box.shape in
    let rec go dx dy dz =
      if dz = s.sz then true
      else if dy = s.sy then go 0 0 (dz + 1)
      else if dx = s.sx then go 0 (dy + 1) dz
      else
        let c = Coord.wrap d (Coord.make (b.x + dx) (b.y + dy) (b.z + dz)) in
        Grid.is_free grid (Coord.index d c) && go (dx + 1) dy dz
    in
    go 0 0 0

  let scan_shapes grid shapes =
    let d = Grid.dims grid in
    let wrap = Grid.wrap grid in
    let acc = ref [] in
    List.iter
      (fun shape ->
        iter_bases d ~wrap shape ~f:(fun x y z ->
            let box = Box.make (Coord.make x y z) shape in
            if box_free_scan grid box then acc := box :: !acc))
      shapes;
    !acc

  (* Enumerate boxes of every size, then filter: the O(M^9) strawman. *)
  let find_naive grid ~volume =
    scan_shapes grid (Shapes.shapes_desc (Grid.dims grid))
    |> List.filter (fun b -> Box.volume b = volume)
    |> sort_boxes

  (* Only the divisor shapes of the requested volume. *)
  let find_shape_search grid ~volume =
    sort_boxes (scan_shapes grid (Shapes.shapes_of_volume (Grid.dims grid) volume))

  (* Projection of partitions: for every z-extent starting at z0, keep a
     2-D map of columns that are free across the whole extent (AND-ed in
     incrementally as the extent grows), and find free rectangles in it
     with 2-D prefix sums. *)
  let find_pop grid ~volume =
    let d = Grid.dims grid in
    let wrap = Grid.wrap grid in
    let ex = if wrap then 2 * d.nx else d.nx in
    let ey = if wrap then 2 * d.ny else d.ny in
    let cum = Array.make ((ex + 1) * (ey + 1)) 0 in
    let free2d = Array.make (d.nx * d.ny) true in
    let rebuild_cum () =
      (* cum.(i + (ex+1)*j) = #blocked columns in [0,i) x [0,j) of the
         (possibly doubled) 2-D space. *)
      for j = 1 to ey do
        for i = 1 to ex do
          let blocked = if free2d.((i - 1) mod d.nx + (d.nx * ((j - 1) mod d.ny))) then 0 else 1 in
          cum.(i + ((ex + 1) * j)) <-
            blocked
            + cum.(i - 1 + ((ex + 1) * j))
            + cum.(i + ((ex + 1) * (j - 1)))
            - cum.(i - 1 + ((ex + 1) * (j - 1)))
        done
      done
    in
    let rect_free x0 y0 sx sy =
      let at i j = cum.(i + ((ex + 1) * j)) in
      at (x0 + sx) (y0 + sy) - at x0 (y0 + sy) - at (x0 + sx) y0 + at x0 y0 = 0
    in
    let acc = ref [] in
    (* Every z is a candidate base whether or not the torus wraps; the
       wrap distinction lives in [max_sz] and the canonical rule below.
       Within a plane, (x, y) bases follow [iter_bases]. *)
    let plane = Dims.make d.nx d.ny 1 in
    for z0 = 0 to d.nz - 1 do
      Array.fill free2d 0 (Array.length free2d) true;
      let max_sz = if wrap then d.nz else d.nz - z0 in
      for sz = 1 to max_sz do
        (* Grow the projection by layer z0 + sz - 1. *)
        let z = (z0 + sz - 1) mod d.nz in
        for y = 0 to d.ny - 1 do
          for x = 0 to d.nx - 1 do
            if not (Grid.is_free grid (Coord.index d (Coord.make x y z))) then
              free2d.(x + (d.nx * y)) <- false
          done
        done;
        (* Canonical rule: a full wrap of the z dimension is only
           reported at base z = 0. *)
        let z_canonical = (not wrap) || sz < d.nz || z0 = 0 in
        if volume mod sz = 0 && z_canonical then begin
          rebuild_cum ();
          let area = volume / sz in
          List.iter
            (fun sx ->
              if sx <= d.nx && area / sx <= d.ny then begin
                let rect = Shape.make sx (area / sx) 1 in
                iter_bases plane ~wrap rect ~f:(fun x0 y0 _ ->
                    if rect_free x0 y0 rect.sx rect.sy then
                      acc := Box.make (Coord.make x0 y0 z0) { rect with sz } :: !acc)
              end)
            (Shapes.divisors area)
        end
      done
    done;
    sort_boxes !acc

  let find algo grid ~volume =
    if volume <= 0 then invalid_arg "Finder.Reference.find: volume must be positive";
    match algo with
    | Naive -> find_naive grid ~volume
    | Pop -> find_pop grid ~volume
    | Shape_search -> find_shape_search grid ~volume
end

(* ------------------------------------------------------------------ *)
(* Differential mode: cross-check every cache query against an
   independent reference finder. Global and atomic so parallel sweep
   domains share one switch; the check is orders of magnitude slower
   than the query it guards, so it is strictly a debug/CI facility.
   On machines too large for the naive O(M^9) oracle the reference is
   a freshly built, summary-ungated table scan: an independent
   occupancy representation exercising none of the incremental
   maintenance, memoization or summary gating under test. A sampling
   rate makes the mode affordable on full-machine runs: [sample = n]
   checks every nth guarded query. *)

exception Divergence of string

let () = Printexc.register_printer (function Divergence msg -> Some msg | _ -> None)

(* 0 = off; n >= 1 = cross-check every nth guarded query. *)
let differential = Atomic.make 0
let diff_tick = Atomic.make 0

let set_differential ?(sample = 1) on =
  if sample < 1 then invalid_arg "Finder.set_differential: sample must be >= 1";
  Atomic.set differential (if on then sample else 0);
  Atomic.set diff_tick 0

let differential_enabled () = Atomic.get differential > 0

(* Whether this particular guarded query gets checked. *)
let differential_armed () =
  match Atomic.get differential with
  | 0 -> false
  | 1 -> true
  | n -> Atomic.fetch_and_add diff_tick 1 mod n = 0

let naive_oracle_max = 128

let reference_find grid ~volume =
  if Grid.volume grid <= naive_oracle_max then Reference.find_naive grid ~volume
  else find_prefix_scan ~gate:false grid (lazy (Prefix.build grid)) ~volume

(* The engine's candidate cap, transcribed literally from the
   historical materialise-then-subsample path so a counted-walk bug
   cannot hide behind shared code. *)
let reference_cap ~cap boxes =
  let n = List.length boxes in
  if n <= cap then boxes
  else
    let arr = Array.of_list boxes in
    List.init cap (fun i -> arr.(i * n / cap))

(* What a query answered, in a form the reference can be projected
   onto. *)
type answer = Boxes of Box.t list | Exists of bool

let pp_answer ppf = function
  | Exists b -> Format.fprintf ppf "exists=%b" b
  | Boxes [] -> Format.fprintf ppf "0 boxes: (none)"
  | Boxes boxes ->
      Format.fprintf ppf "%d boxes: @[<hov>%a@]" (List.length boxes)
        Format.(pp_print_list ~pp_sep:pp_print_space Box.pp)
        boxes

(* A full ASCII dump of a 64x32x32 grid helps nobody; keep it for the
   supernode-scale grids where it is actually readable. *)
let pp_grid_capped ppf grid =
  if Grid.volume grid <= 4096 then Grid.pp ppf grid
  else
    Format.fprintf ppf "(grid dump suppressed: %a, %d nodes free)" Dims.pp (Grid.dims grid)
      (Grid.free_count grid)

let check_counter () =
  Bgl_obs.Registry.counter
    (Bgl_obs.Runtime.registry ())
    ~help:"accelerated finder queries cross-checked against the reference finder"
    "bgl_finder_differential_checks_total"

(* The one checker: the query's answer must equal [project] applied to
   the reference enumeration, AND every box it returns must pass direct
   validity checks (free, in-bounds, exact volume), so a bug shared by
   both paths — e.g. in the base enumeration — still has a chance to
   surface. *)
let differential_check ~site grid ~volume ~project fast =
  Bgl_obs.Registry.inc (check_counter ());
  let d = Grid.dims grid in
  let diverge fmt = Format.kasprintf (fun msg -> raise (Divergence msg)) fmt in
  let reference = project (reference_find grid ~volume) in
  if fast <> reference then
    diverge
      "@[<v>finder divergence at %s: volume=%d dims=%a wrap=%b@ accelerated %a@ reference %a@ \
       grid:@ %a@]"
      site volume Dims.pp d (Grid.wrap grid) pp_answer fast pp_answer reference pp_grid_capped
      grid;
  match fast with
  | Exists _ -> ()
  | Boxes boxes ->
      List.iter
        (fun (b : Box.t) ->
          if
            (not (Coord.in_bounds d b.base))
            || Box.volume b <> volume
            || not (Grid.box_is_free grid b)
          then
            diverge "finder divergence at %s: invalid box %a (volume %d, dims %a)" site Box.pp b
              volume Dims.pp d)
        boxes

(* ------------------------------------------------------------------ *)
(* The one production surface: memoise finder results keyed on the
   grid's occupancy fingerprint, over an incrementally maintained
   summed-area table. Within one scheduling pass the engine re-queries
   the same volumes many times (head retry, backfill scan, MFP probes
   restore the fingerprint), so repeated enumeration work collapses
   into a hash lookup; any occupancy change flips the fingerprint and
   invalidates exactly the stale entries. *)

module Cache = struct
  type counters = { mutable hits : int; mutable misses : int }

  type t = {
    grid : Grid.t;
    table : Prefix.t Lazy.t;
        (* tracking table (Prefix.track), built on first forced use:
           the engine creates ghost caches per backfill/migration
           probe, and at full machine scale an eager 545k-entry build
           per probe would dominate — summary-gated probes often never
           touch the table at all. *)
    find_memo : (int, int * Box.t list) Hashtbl.t;  (* volume -> fingerprint, result *)
    exists_memo : (int, int * bool) Hashtbl.t;
    select_memo : (int * int, int * Box.t list) Hashtbl.t;
        (* (volume, cap) -> fingerprint, subsample *)
    mutable mfp_slot : (int * Box.t option) option;
        (* one-deep MFP memo: the stable (unprobed) occupancy state *)
    counters : counters;
    obs_hits : Bgl_obs.Registry.counter;
    obs_misses : Bgl_obs.Registry.counter;
    obs_incr : Bgl_obs.Registry.counter;
    obs_full : Bgl_obs.Registry.counter;
    obs_counted : Bgl_obs.Registry.counter;
    obs_counted_skips : Bgl_obs.Registry.counter;
    mutable last_stats : Prefix.stats;
  }

  let create grid =
    let open Bgl_obs.Registry in
    let reg = Bgl_obs.Runtime.registry () in
    {
      grid;
      table = lazy (Prefix.track grid);
      find_memo = Hashtbl.create 32;
      exists_memo = Hashtbl.create 32;
      select_memo = Hashtbl.create 32;
      mfp_slot = None;
      counters = { hits = 0; misses = 0 };
      obs_hits = counter reg ~help:"finder candidate-cache hits" "bgl_finder_cache_hits_total";
      obs_misses =
        counter reg ~help:"finder candidate-cache misses" "bgl_finder_cache_misses_total";
      obs_incr =
        counter reg ~help:"summed-area table updates, by kind"
          "bgl_prefix_updates_total{kind=\"incremental\"}";
      obs_full =
        counter reg ~help:"summed-area table updates, by kind"
          "bgl_prefix_updates_total{kind=\"full\"}";
      obs_counted =
        counter reg ~help:"counted (count-then-select) finder queries"
          "bgl_finder_counted_queries_total";
      obs_counted_skips =
        counter reg ~help:"shapes and base rows the summary let counted queries skip"
          "bgl_finder_counted_skips_total";
      last_stats = { Prefix.full_rebuilds = 0; incremental_updates = 0 };
    }

  let grid t = t.grid

  (* Notes only reach a table that exists; a table built later starts
     from the grid's then-current occupancy, so unforwarded notes are
     never missed state. *)
  let note_box t box = if Lazy.is_val t.table then Prefix.note_box (Lazy.force t.table) box
  let note_node t node = if Lazy.is_val t.table then Prefix.note_node (Lazy.force t.table) node

  let flush_table_stats t =
    let s = Prefix.stats (Lazy.force t.table) in
    let incr = s.Prefix.incremental_updates - t.last_stats.Prefix.incremental_updates in
    let full = s.Prefix.full_rebuilds - t.last_stats.Prefix.full_rebuilds in
    if incr > 0 then Bgl_obs.Registry.add t.obs_incr (float_of_int incr);
    if full > 0 then Bgl_obs.Registry.add t.obs_full (float_of_int full);
    if incr > 0 || full > 0 then t.last_stats <- s

  let table t =
    let tbl = Lazy.force t.table in
    Prefix.sync tbl;
    flush_table_stats t;
    tbl

  (* A per-query lazy view: synced (and built) only if the scan
     actually consults it. *)
  let lazy_table t = lazy (table t)

  let hit t =
    t.counters.hits <- t.counters.hits + 1;
    Bgl_obs.Registry.inc t.obs_hits

  let miss t =
    t.counters.misses <- t.counters.misses + 1;
    Bgl_obs.Registry.inc t.obs_misses

  let stats t = (t.counters.hits, t.counters.misses)
  let table_stats t = Prefix.stats (Lazy.force t.table)

  (* Serve [key] from [memo] while the occupancy fingerprint matches,
     else run [compute] and remember its result. *)
  let memoised t memo key ~compute =
    let fp = Grid.fingerprint t.grid in
    match Hashtbl.find_opt memo key with
    | Some (fp', r) when fp' = fp ->
        hit t;
        r
    | _ ->
        miss t;
        let r = compute () in
        Hashtbl.replace memo key (fp, r);
        r

  let find t ~volume =
    if volume <= 0 then invalid_arg "Finder.Cache.find: volume must be positive";
    Bgl_resilience.Budget.check ~site:"finder.cache.find";
    let result =
      if volume > Grid.volume t.grid then []
      else
        memoised t t.find_memo volume ~compute:(fun () ->
            let table = lazy_table t in
            if Bgl_obs.Span.enabled () then
              Bgl_obs.Span.time ~name:"finder.cache.find" (fun () ->
                  find_prefix_scan t.grid table ~volume)
            else find_prefix_scan t.grid table ~volume)
    in
    if differential_armed () then
      differential_check ~site:"cache.find" t.grid ~volume
        ~project:(fun r -> Boxes r)
        (Boxes result);
    result

  let exists_free t ~volume =
    if volume <= 0 then invalid_arg "Finder.Cache.exists_free: volume must be positive";
    Bgl_resilience.Budget.check ~site:"finder.cache.exists_free";
    let result =
      if volume > Grid.volume t.grid then false
      else
        memoised t t.exists_memo volume ~compute:(fun () ->
            let table = lazy_table t in
            if Bgl_obs.Span.enabled () then
              Bgl_obs.Span.time ~name:"finder.cache.exists_free" (fun () ->
                  exists_free_scan t.grid table ~volume)
            else exists_free_scan t.grid table ~volume)
    in
    if differential_armed () then
      differential_check ~site:"cache.exists_free" t.grid ~volume
        ~project:(fun r -> Exists (r <> []))
        (Exists result);
    result

  (* The capped engine query: count, pick the historical even-subsample
     ranks, and emit only those boxes. *)
  let select t ~volume ~cap =
    if volume <= 0 then invalid_arg "Finder.Cache.select: volume must be positive";
    if cap < 1 then invalid_arg "Finder.Cache.select: cap must be >= 1";
    Bgl_resilience.Budget.check ~site:"finder.cache.select";
    let result =
      if volume > Grid.volume t.grid then []
      else
        memoised t t.select_memo (volume, cap) ~compute:(fun () ->
            let plan, boxes = select_scan t.grid (lazy_table t) ~volume ~cap in
            Bgl_obs.Registry.inc t.obs_counted;
            if plan.p_skips > 0 then
              Bgl_obs.Registry.add t.obs_counted_skips (float_of_int plan.p_skips);
            boxes)
    in
    if differential_armed () then
      differential_check ~site:"cache.select" t.grid ~volume
        ~project:(fun r -> Boxes (reference_cap ~cap r))
        (Boxes result);
    result

  (* MFP search does not fit the per-volume memo (its result is a box,
     found by scanning volume levels), so it gets a one-deep slot:
     callers like [Mfp.box ~cache] pass the actual search as [compute].
     What-if probes bypass this slot so the stable pre-probe state is
     not evicted by transient fingerprints. *)
  let mfp_cached t ~compute =
    let fp = Grid.fingerprint t.grid in
    match t.mfp_slot with
    | Some (fp', r) when fp' = fp ->
        hit t;
        r
    | _ ->
        miss t;
        let r = compute () in
        t.mfp_slot <- Some (fp, r);
        r
end
