open Bgl_torus

(* ------------------------------------------------------------------ *)
(* Every scan of the grid's own masks first asks the grid's Summary
   whether the shape can fit at all: an O(nx + ny + nz) slab probe
   that rules a shape out before its x-base table is eroded. *)

let shape_possible grid shape =
  Summary.shape_feasible (Grid.summary grid) ~wrap:(Grid.wrap grid) shape

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
(* Free-row bitmasks. Row [z * ny + y] holds one bit per node (x, y, z),
   set iff the node is free: [nx] bits in [nw] words of [word_bits]. A
   box of shape (sx, sy, sz) based at (x, y, z) is free iff bits
   x .. x+sx-1 are set in every row (z+k, y+j), k < sz, j < sy, all
   read cyclically under wraparound. One erosion along x ([row_bases])
   leaves one bit per x base of a row; ANDing rows along z and y — a
   word at a time — leaves one mask per base row. The two commute, so
   the count, select and MFP level scans erode x once per box width
   per occupancy, into that width's x-base table ([x_table]), and then
   erode the table along z and y by log-step ([erode_shape]): each
   eroded word is that row's x-base mask, popcounted for a count and
   read lowest bit first for an enumeration. The masks and tables are
   rebuilt from the grid's occupancy words whenever its version moves,
   at O(volume / 32) each, so there is no change log to keep in step
   and an unreported mutation cannot leave them stale. A what-if query
   scans masks edited between queries, which share no table: it erodes
   them along z and y by the same log-step, no further than its best
   row so far, and x-erodes each base row it reads ([first_free_scan]).
   The erosion buffers are scratch owned by
   one cache and grown on first use, so a warm query allocates no
   machine-sized array. *)

let word_bits = 32
let full_word = (1 lsl word_bits) - 1

type rows = {
  nx : int;
  ny : int;
  nz : int;
  wrap : bool;
  nw : int;  (* words per row *)
  last_full : int;  (* the last word of a row whose every node is free *)
  free : int array;  (* word w of row r at (r * nw) + w *)
  xbase : int array array;  (* width sx's x-base table, [||] until first use *)
  xbase_version : int array;  (* the [version] each table reflects *)
  mutable eroded : int array array;  (* scratch: erosion buffers, grown on first use *)
  wide : int array;  (* scratch: one eroded row, extended past the seam *)
  seam : int array;  (* scratch: the cells a cyclic in-place erosion step wraps round to *)
  counts : int array;  (* scratch: free boxes based in each row *)
  mutable version : int;  (* the Grid.version [free] reflects *)
}

let make_rows grid =
  let d = Grid.dims grid in
  let nw = (d.nx + word_bits - 1) / word_bits in
  let n = d.ny * d.nz * nw in
  {
    nx = d.nx;
    ny = d.ny;
    nz = d.nz;
    wrap = Grid.wrap grid;
    nw;
    last_full = (1 lsl (d.nx - (word_bits * (nw - 1)))) - 1;
    free = Array.make n 0;
    xbase = Array.make (d.nx + 1) [||];
    xbase_version = Array.make (d.nx + 1) (-1);
    eroded = [||];
    wide = Array.make (2 * nw) 0;
    seam = Array.make (max 1 (d.nz / 2) * d.ny * nw) 0;
    counts = Array.make (d.ny * d.nz) 0;
    version = -1;
  }

let refresh r grid =
  let v = Grid.version grid in
  if v <> r.version then begin
    for row = 0 to (r.ny * r.nz) - 1 do
      for w = 0 to r.nw - 1 do
        let x = w * word_bits in
        let len = min word_bits (r.nx - x) in
        r.free.((row * r.nw) + w) <-
          lnot (Grid.occupied_bits grid ~pos:((row * r.nx) + x) ~len) land ((1 lsl len) - 1)
      done
    done;
    r.version <- v
  end

(* A shape with its inclusive base bounds, as in [iter_bases]. *)
type counted_shape = { cs : Shape.t; cx_hi : int; cy_hi : int; cz_hi : int }

let counted (d : Dims.t) ~wrap (s : Shape.t) =
  {
    cs = s;
    cx_hi = base_hi ~wrap s.sx d.nx;
    cy_hi = base_hi ~wrap s.sy d.ny;
    cz_hi = base_hi ~wrap s.sz d.nz;
  }

(* Scratch buffer [!next] of the erosion pool, as large as [free];
   advances [next]. *)
let take r next =
  while !next >= Array.length r.eroded do
    r.eroded <- Array.append r.eroded [| Array.make (Array.length r.free) 0 |]
  done;
  incr next;
  r.eroded.(!next - 1)

let rec row_full r buf off k =
  if k = r.nw - 1 then buf.(off + k) = r.last_full
  else buf.(off + k) = full_word && row_full r buf off (k + 1)

(* Set bits of a word of at most [word_bits] bits, by SWAR. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F in
  ((w * 0x01010101) lsr 24) land 0xFF

(* Index of the lowest set bit of a non-zero word: the bits below it. *)
let ctz w = popcount ((w land -w) - 1)

(* [t] ANDed with itself shifted right (towards bit 0) by [s] bits,
   over its first [len] words, in place: word w reads words w + s / 32
   and the one after, which ascending w has not yet overwritten. Bits
   shifted in from beyond [len] are 0. *)
let shift_and t len s =
  let off = s / word_bits and b = s mod word_bits in
  for w = 0 to len - 1 do
    let lo = if w + off < len then t.(w + off) else 0
    and hi = if w + off + 1 < len then t.(w + off + 1) else 0 in
    t.(w) <- t.(w) land ((lo lsr b) lor ((hi lsl (word_bits - b)) land full_word))
  done

(* Under wraparound, the row's first [n] bits (n < nx) appended after
   bit nx of [t], whose words from nw on are 0. *)
let append_seam r t n =
  for j = 0 to (n - 1) / word_bits do
    let v = t.(j) land ((1 lsl min word_bits (n - (j * word_bits))) - 1) in
    let p = r.nx + (j * word_bits) in
    let dw = p / word_bits and b = p mod word_bits in
    t.(dw) <- t.(dw) lor ((v lsl b) land full_word);
    if b > 0 then t.(dw + 1) <- t.(dw + 1) lor (v lsr (word_bits - b))
  done

(* The x-erosion: the bases of boxes [sx] wide in the row at [off] of
   [buf], written to [r.wide] as a mask (bit x mod 32 of word x / 32
   set iff x is a base, nothing past [cx_hi]), returning the index of
   its last word. A full row holds every base up to cx_hi and an empty
   one none. Any other row is copied, extended past the seam under
   wraparound, and eroded along x: after ANDing with itself shifted by
   1, 2, 4, ..., 2^k <= sx, and once more by sx - 2^k (overlapping
   windows are harmless, AND being idempotent), bit x is set iff bits
   x .. x+sx-1 all were. *)
let row_bases r buf off ~sx ~cx_hi =
  let t = r.wide and last = cx_hi / word_bits in
  if row_full r buf off 0 then Array.fill t 0 (last + 1) full_word
  else begin
    let any = ref 0 in
    for k = 0 to r.nw - 1 do
      t.(k) <- buf.(off + k);
      any := !any lor t.(k)
    done;
    if !any <> 0 then begin
      let len = if r.wrap then (r.nx + sx - 1 + word_bits - 1) / word_bits else r.nw in
      Array.fill t r.nw (len - r.nw) 0;
      if r.wrap && sx > 1 then append_seam r t (sx - 1);
      let w = ref 1 in
      while 2 * !w <= sx do
        shift_and t len !w;
        w := 2 * !w
      done;
      if sx > !w then shift_and t len (sx - !w)
    end
  end;
  t.(last) <- t.(last) land ((1 lsl ((cx_hi mod word_bits) + 1)) - 1);
  last

(* The x-base table of width [sx]: every row of the masks x-eroded by
   [row_bases], laid out like [free], the words past the width's last
   base 0. Built on first use and rebuilt only when the masks moved
   since; width 1 is the masks themselves. *)
let x_table r sx =
  if sx = 1 then r.free
  else begin
    if Array.length r.xbase.(sx) = 0 then r.xbase.(sx) <- Array.make (Array.length r.free) 0;
    let t = r.xbase.(sx) in
    if r.xbase_version.(sx) <> r.version then begin
      let cx_hi = base_hi ~wrap:r.wrap sx r.nx in
      for row = 0 to (r.ny * r.nz) - 1 do
        let off = row * r.nw in
        let last = row_bases r r.free off ~sx ~cx_hi in
        Array.blit r.wide 0 t off (last + 1);
        Array.fill t (off + last + 1) (r.nw - last - 1) 0
      done;
      r.xbase_version.(sx) <- r.version
    end;
    t
  end

(* One log-step along an axis of [n] cells of [blk] words, in each of
   [planes] planes [pstride] words apart: cell c <= last of [dst]
   becomes cell c of [src] ANDed with cell c + s, read cyclically.
   Ascending, an in-place step (src == dst) reads cell c + s before
   overwriting it, except past the seam: there it reads cells 0 .. s-1,
   saved first in [r.seam]. *)
let erode_step r ~src ~dst ~planes ~pstride ~n ~blk ~s ~last =
  let direct = min last (n - 1 - s) in
  let wrapped = (n - s) * blk in
  let saved = last > direct && src == dst in
  let from = if saved then r.seam else src in
  for p = 0 to planes - 1 do
    let base = p * pstride in
    if saved then Array.blit dst base r.seam 0 (s * blk);
    let shift = if saved then base + wrapped else wrapped in
    for i = base to base + ((direct + 1) * blk) - 1 do
      dst.(i) <- src.(i) land src.(i + (s * blk))
    done;
    for i = base + wrapped to base + ((last + 1) * blk) - 1 do
      dst.(i) <- src.(i) land from.(i - shift)
    done
  done

(* Log-step erosion of [ext] >= 2 cells along an axis, as [row_bases]
   does along x: AND with the cells 1, 2, 4, ..., 2^k <= ext further
   on, then once more with those ext - 2^k on. Afterwards cell c <= hi
   of [dst] holds the AND of cells c .. c+ext-1 of [src]. The steps
   after the one that makes windows of w cells reach ext - w cells
   further, so that step computes cells up to hi + ext - w, or every
   cell once that passes the axis. The first step reads [src], the
   rest [dst]. *)
let erode_axis r ~src ~dst ~planes ~pstride ~n ~blk ~ext ~hi =
  let last w = min (n - 1) (hi + ext - w) in
  let rec go src w =
    if 2 * w <= ext then begin
      erode_step r ~src ~dst ~planes ~pstride ~n ~blk ~s:w ~last:(last (2 * w));
      go dst (2 * w)
    end
    else if ext > w then erode_step r ~src ~dst ~planes ~pstride ~n ~blk ~s:(ext - w) ~last:hi
  in
  go src 1

(* Shape [c]'s base rows from the masks [src] x-eroded or not: [src]
   eroded along z, then along y, in the next buffer unless the shape is
   one row deep and high. Row (z, y), z <= z_hi <= cz_hi and y <= cy_hi,
   holds the AND of every row a box based in it spans. Other rows are
   stale. *)
let erode_zy r src c ~z_hi ~into =
  let s = c.cs in
  if s.sy = 1 && s.sz = 1 then src
  else begin
    let dst = take r into and plane = r.ny * r.nw in
    let src =
      if s.sz = 1 then src
      else begin
        erode_axis r ~src ~dst ~planes:1 ~pstride:0 ~n:r.nz ~blk:plane ~ext:s.sz ~hi:z_hi;
        dst
      end
    in
    if s.sy > 1 then
      erode_axis r ~src ~dst ~planes:(z_hi + 1) ~pstride:plane ~n:r.ny ~blk:r.nw ~ext:s.sy
        ~hi:c.cy_hi;
    dst
  end

(* Shape [c]'s x-base masks: its width's x-base table eroded along z
   and y. Bit x mod 32 of word x / 32 of row (z, y), z <= cz_hi and
   y <= cy_hi, is set iff box (x, y, z) is free. *)
let erode_shape r c ~into = erode_zy r (x_table r c.cs.sx) c ~z_hi:c.cz_hi ~into

(* The shapes of [volume] the summary admits, and how many it ruled
   out. *)
let possible_shapes grid ~volume =
  let d = Grid.dims grid and wrap = Grid.wrap grid in
  let shapes = Shapes.shapes_of_volume d volume in
  let kept = List.filter (shape_possible grid) shapes in
  (List.map (counted d ~wrap) kept, List.length shapes - List.length kept)

(* Every free box of the level's [shapes], packed as (index into
   [shapes], x, y, z) quadruples: shapes in array order, bases in
   [iter_bases] order, each base row's mask read lowest bit first. *)
let level_scan r grid shapes =
  let d = Grid.dims grid and wrap = Grid.wrap grid in
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      if shape_possible grid s then begin
        let c = counted d ~wrap s in
        let buf = erode_shape r c ~into:(ref 0) in
        for z = 0 to c.cz_hi do
          for y = 0 to c.cy_hi do
            let off = ((z * r.ny) + y) * r.nw in
            for k = 0 to r.nw - 1 do
              let w = ref buf.(off + k) in
              while !w <> 0 do
                acc := z :: y :: ((k * word_bits) + ctz !w) :: i :: !acc;
                w := !w land (!w - 1)
              done
            done
          done
        done
      end)
    shapes;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Counted enumeration: answer box-list queries without materialising
   more boxes than they return. A count pass erodes each shape's
   x-base table once ([erode_shape]) and credits every base row with
   its free-box count, the popcount of its mask; a select pass then
   walks only the rows holding the selected ranks and emits those
   boxes directly. [Cache.find] is the uncapped select, whose targets
   are every rank.

   The load-bearing invariant is that both passes enumerate in exactly
   sorted order, with no sort: [Box.compare] orders by
   base (z, then y, then x — [Coord.compare]) and then by shape
   ([Shape.compare]), so rows ascend in (z, y), bases within a row
   ascend in x, and shapes within a base follow [Shapes.shapes_of_volume],
   which is sorted by [Shape.compare]. Under that invariant the rank-r
   box of the counted walk IS element r of that list, so the engine's
   deterministic even subsample [i*n/cap] reproduces byte-identically
   — proven by the qcheck equivalence layer and the differential
   oracle rather than trusted. *)

type count_plan = {
  p_shapes : counted_shape array;
  p_rows : int array array;  (* each shape's base rows *)
  p_total : int;  (* the per-row counts are left in [rows.counts] *)
  p_skips : int;  (* shapes the summary ruled out *)
}

(* Each erosion takes its own buffer, so every shape's base rows
   outlive the pass for the select pass to read. *)
let count_plan r grid ~volume =
  let shapes, skips = possible_shapes grid ~volume in
  let shapes = Array.of_list shapes in
  Array.fill r.counts 0 (Array.length r.counts) 0;
  let total = ref 0 and next = ref 0 in
  let eroded =
    Array.map
      (fun c ->
        let buf = erode_shape r c ~into:next in
        for z = 0 to c.cz_hi do
          for y = 0 to c.cy_hi do
            let row = (z * r.ny) + y in
            let n = ref 0 in
            for i = row * r.nw to ((row + 1) * r.nw) - 1 do
              n := !n + popcount buf.(i)
            done;
            r.counts.(row) <- r.counts.(row) + !n;
            total := !total + !n
          done
        done;
        buf)
      shapes
  in
  { p_shapes = shapes; p_rows = eroded; p_total = !total; p_skips = skips }

(* Shape [c]'s base bits in row (z, y) of its base rows [buf], written
   to [dst] from [o]. *)
let row_base_bits r c buf ~z ~y dst o =
  if z <= c.cz_hi && y <= c.cy_hi then Array.blit buf (((z * r.ny) + y) * r.nw) dst o r.nw
  else Array.fill dst o r.nw 0

(* Select pass: walk rows in (z, y) order, using the per-row counts to
   skip whole rows by rank arithmetic, and emit bases (x ascending,
   shapes in sorted order) only inside rows that hold a target rank.
   [targets] must be strictly increasing. *)
let select_from_plan r plan ~targets =
  let shapes = plan.p_shapes in
  let bases = Array.make (Array.length shapes * r.nw) 0 in
  let n_targets = Array.length targets in
  let acc = ref [] in
  let ti = ref 0 in
  let rank = ref 0 in
  let row = ref 0 in
  while !ti < n_targets && !row < r.ny * r.nz do
    let rc = r.counts.(!row) in
    if rc > 0 then begin
      let row_end = !rank + rc in
      if targets.(!ti) < row_end then begin
        let z = !row / r.ny and y = !row mod r.ny in
        for i = 0 to Array.length shapes - 1 do
          row_base_bits r shapes.(i) plan.p_rows.(i) ~z ~y bases (i * r.nw)
        done;
        for x = 0 to r.nx - 1 do
          if !ti < n_targets && targets.(!ti) < row_end then
            for i = 0 to Array.length shapes - 1 do
              let word = bases.((i * r.nw) + (x / word_bits)) in
              if word land (1 lsl (x mod word_bits)) <> 0 then begin
                if !ti < n_targets && targets.(!ti) = !rank then begin
                  acc := Box.make (Coord.make x y z) shapes.(i).cs :: !acc;
                  incr ti
                end;
                incr rank
              end
            done
        done
      end;
      rank := row_end
    end;
    incr row
  done;
  List.rev !acc

(* The engine's historical cap semantics, reproduced exactly: identity
   below the cap, else the deterministic even subsample over sorted
   ranks. Strictly increasing when n > cap because consecutive targets
   differ by at least floor(n/cap) >= 1. *)
let even_targets ~n ~cap =
  if n <= cap then Array.init n Fun.id else Array.init cap (fun i -> i * n / cap)

let spanned name f = if Bgl_obs.Span.enabled () then Bgl_obs.Span.time ~name f else f ()

let select_scan r grid ~volume ~cap =
  let plan = spanned "finder.count.scan" (fun () -> count_plan r grid ~volume) in
  let targets = even_targets ~n:plan.p_total ~cap in
  (plan, spanned "finder.count.select" (fun () -> select_from_plan r plan ~targets))

(* ------------------------------------------------------------------ *)
(* What-if occupancy: where could a job start once some running jobs
   have ended, or once every running job has been repacked? A what-if
   copy of the masks, laid out like [rows.free], is edited a box at a
   time ([set_box]) and scanned for its first free box
   ([first_free_scan]) in the cache's erosion pool. Its masks change
   between queries, so it shares no x-base table: it erodes the masks
   along z and y ([erode_zy]) and x-erodes only the base rows it reads
   ([row_bases]). Nothing here reads the grid's Summary: it describes
   the grid's occupancy, not the what-if one. *)

(* Set ([on]) or clear the bits of [box] in the masks [free], returning
   how many bits changed. A box's x extent is one interval of each of
   its rows, or two when it wraps past the seam. *)
let set_box r free (box : Box.t) ~on =
  let b = box.base and s = box.shape in
  let changed = ref 0 in
  let interval row lo hi =
    for w = lo / word_bits to (hi - 1) / word_bits do
      let x0 = w * word_bits in
      let a = max lo x0 - x0 and e = min hi (x0 + word_bits) - x0 in
      let m = ((1 lsl (e - a)) - 1) lsl a and i = (row * r.nw) + w in
      let old = free.(i) in
      if on then begin
        changed := !changed + popcount (m land lnot old);
        free.(i) <- old lor m
      end
      else begin
        changed := !changed + popcount (m land old);
        free.(i) <- old land lnot m
      end
    done
  in
  let hi = b.x + s.sx in
  for k = 0 to s.sz - 1 do
    for j = 0 to s.sy - 1 do
      let row = (((b.z + k) mod r.nz) * r.ny) + ((b.y + j) mod r.ny) in
      if hi <= r.nx then interval row b.x hi
      else begin
        interval row b.x r.nx;
        interval row 0 (hi - r.nx)
      end
    done
  done;
  !changed

(* The lowest set bit of words 0 .. last of [t], or -1. *)
let rec first_bit t last k =
  if k > last then -1 else if t.(k) <> 0 then (k * word_bits) + ctz t.(k) else first_bit t last (k + 1)

(* The first free box of [shapes] in sorted order on the masks [free],
   as Some (row, x, index into [shapes]). [shapes] must be in
   [Shape.compare] order, so (row, x, index) sorts like [Box.compare].
   A shape's rows are read in (z, y) order and only up to the best
   box's row, and no erosion goes past that row's plane: a later row
   cannot hold a box that sorts first. *)
let first_free_scan r free shapes =
  let b_row = ref max_int and b_x = ref 0 and b_i = ref 0 in
  Array.iteri
    (fun i c ->
      let z_hi = min c.cz_hi (!b_row / r.ny) in
      let buf = erode_zy r free c ~z_hi ~into:(ref 0) in
      let rec scan z y =
        if y > c.cy_hi then (if z < z_hi then scan (z + 1) 0)
        else
          let row = (z * r.ny) + y in
          if row <= !b_row then begin
            let x = first_bit r.wide (row_bases r buf (row * r.nw) ~sx:c.cs.sx ~cx_hi:c.cx_hi) 0 in
            if x < 0 then scan z (y + 1)
            else if row < !b_row || x < !b_x then begin
              b_row := row;
              b_x := x;
              b_i := i
            end
          end
      in
      scan 0 0)
    shapes;
  if !b_row = max_int then None else Some (!b_row, !b_x, !b_i)

(* ------------------------------------------------------------------ *)
(* The paper's Appendix 9 finders, kept as the oracle the production
   scans are validated against. None of them shares the free-row
   masks, the summary gate or the counted walk. *)

(* Above this machine volume a reference judges freeness by a fresh
   summed-area table rather than node by node. *)
let naive_oracle_max = 128

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

  let scan_shapes grid ?(free = box_free_scan grid) shapes =
    let d = Grid.dims grid in
    let wrap = Grid.wrap grid in
    let acc = ref [] in
    List.iter
      (fun shape ->
        iter_bases d ~wrap shape ~f:(fun x y z ->
            let box = Box.make (Coord.make x y z) shape in
            if free box then acc := box :: !acc))
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

  (* The MFP by its definition, sharing none of the masks, the level
     index or the summary: the first box in scan order (levels
     descending, shapes in level order, bases in [iter_bases] order)
     whose nodes are all free and which misses [avoid]. A level larger
     than the free nodes outside [avoid] cannot hold one, so its scan
     is skipped. *)
  let mfp ?avoid grid =
    let d = Grid.dims grid and wrap = Grid.wrap grid in
    let free =
      if Grid.volume grid <= naive_oracle_max then box_free_scan grid
      else Prefix.box_is_free (Prefix.build grid)
    in
    let misses b = match avoid with None -> true | Some c -> not (Box.overlap d b c) in
    let room =
      match avoid with
      | None -> Grid.free_count grid
      | Some c ->
          Grid.free_count grid - List.length (List.filter (Grid.is_free grid) (Box.indices d c))
    in
    let first shape =
      let found = ref None in
      iter_bases d ~wrap shape ~f:(fun x y z ->
          let b = Box.make (Coord.make x y z) shape in
          if Option.is_none !found && misses b && free b then found := Some b);
      !found
    in
    List.find_map
      (fun (volume, shapes) -> if volume > room then None else Array.find_map first shapes)
      (Shapes.levels_desc d)
end

(* ------------------------------------------------------------------ *)
(* Differential mode: cross-check every cache query, and every MFP
   query ([guard_mfp]), against an independent reference. Global and
   atomic so parallel sweep domains share one switch; the check is
   orders of magnitude slower than the query it guards, so it is
   strictly a debug/CI facility.
   On machines too large for the naive O(M^9) oracle the reference is
   a freshly built, summary-ungated summed-area-table scan: an
   occupancy representation sharing nothing with the free-row masks,
   memoization or summary gating under test. A sampling
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

(* Whether this particular guarded query gets checked. *)
let differential_armed () =
  match Atomic.get differential with
  | 0 -> false
  | 1 -> true
  | n -> Atomic.fetch_and_add diff_tick 1 mod n = 0

let reference_find grid ~volume =
  if Grid.volume grid <= naive_oracle_max then Reference.find_naive grid ~volume
  else
    Reference.scan_shapes grid ~free:(Prefix.box_is_free (Prefix.build grid))
      (Shapes.shapes_of_volume (Grid.dims grid) volume)
    |> sort_boxes

(* The engine's candidate cap, transcribed literally from the
   historical materialise-then-subsample path so a counted-walk bug
   cannot hide behind shared code. *)
let reference_cap ~cap boxes =
  let n = List.length boxes in
  if n <= cap then boxes
  else
    let arr = Array.of_list boxes in
    List.init cap (fun i -> arr.(i * n / cap))

let pp_boxes ppf = function
  | [] -> Format.fprintf ppf "0 boxes: (none)"
  | boxes ->
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

(* The one checker: the query's boxes must equal [project] applied to
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
      site volume Dims.pp d (Grid.wrap grid) pp_boxes fast pp_boxes reference pp_grid_capped grid;
  List.iter
    (fun (b : Box.t) ->
      if
        (not (Coord.in_bounds d b.base))
        || Box.volume b <> volume
        || not (Grid.box_is_free grid b)
      then
        diverge "finder divergence at %s: invalid box %a (volume %d, dims %a)" site Box.pp b volume
          Dims.pp d)
    fast

let mfp_check_counter () =
  Bgl_obs.Registry.counter
    (Bgl_obs.Runtime.registry ())
    ~help:"MFP queries cross-checked against the reference MFP"
    "bgl_finder_mfp_differential_checks_total"

let pp_box_option = Format.pp_print_option ~none:(fun ppf () -> Format.fprintf ppf "none") Box.pp

(* The MFP guard: when armed, the box an MFP query settled on must be
   the reference's first free box that misses [avoid]. *)
let guard_mfp ~site ?avoid grid found =
  if differential_armed () then begin
    Bgl_obs.Registry.inc (mfp_check_counter ());
    let reference = Reference.mfp ?avoid grid in
    if found <> reference then
      raise
        (Divergence
           (Format.asprintf
              "@[<v>MFP divergence at %s: dims=%a wrap=%b avoid=%a@ accelerated %a@ reference %a@ \
               grid:@ %a@]"
              site Dims.pp (Grid.dims grid) (Grid.wrap grid) pp_box_option avoid pp_box_option
              found pp_box_option reference pp_grid_capped grid))
  end

let what_if_check_counter () =
  Bgl_obs.Registry.counter
    (Bgl_obs.Runtime.registry ())
    ~help:"what-if first-free queries cross-checked against the reference finder"
    "bgl_finder_what_if_differential_checks_total"

(* The what-if guard: when armed, the box a what-if query settled on
   must be the reference finder's first box on a grid rebuilt node by
   node from the what-if masks [free]. *)
let guard_first_free r free ~dims ~volume found =
  if differential_armed () then begin
    Bgl_obs.Registry.inc (what_if_check_counter ());
    let g = Grid.create ~wrap:r.wrap dims in
    for row = 0 to (r.ny * r.nz) - 1 do
      for x = 0 to r.nx - 1 do
        if free.((row * r.nw) + (x / word_bits)) land (1 lsl (x mod word_bits)) = 0 then
          Grid.occupy_node g ((row * r.nx) + x) ~owner:0
      done
    done;
    let reference = match reference_find g ~volume with [] -> None | b :: _ -> Some b in
    if found <> reference then
      raise
        (Divergence
           (Format.asprintf
              "@[<v>what-if divergence at cache.first_free: volume=%d dims=%a wrap=%b@ accelerated \
               %a@ reference %a@ what-if grid:@ %a@]"
              volume Dims.pp dims r.wrap pp_box_option found pp_box_option reference
              pp_grid_capped g))
  end

(* ------------------------------------------------------------------ *)
(* The one production surface: memoise finder results keyed on the
   grid's occupancy fingerprint, over free-row masks refreshed from the
   grid on demand. Within one scheduling pass the engine re-queries the
   same volumes many times (head retry, backfill scan, every MFP probe
   of a placement), so repeated enumeration work collapses into a hash
   lookup; any occupancy change flips the fingerprint and invalidates
   exactly the stale entries. *)

module Cache = struct
  type mfp_level = { volume : int; shapes : Shape.t array; boxes : int array Lazy.t }

  (* The what-if masks, their free count, the rows whose layout,
     erosion pool and x-base buffer they borrow, and the shapes of each
     volume queried so far. *)
  type scratch = {
    s_rows : rows;
    s_free : int array;
    mutable s_count : int;
    s_dims : Dims.t;
    s_shapes : (int, counted_shape array) Hashtbl.t;
  }

  type t = {
    grid : Grid.t;
    rows : rows Lazy.t;
        (* masks and erosion scratch, allocated on first use: a one-off
           query on a fresh cache pays only for what it reads *)
    scratch : scratch Lazy.t;  (* the one what-if scratch, allocated on first use *)
    select_memo : (int * int, int * Box.t list) Hashtbl.t;
        (* (volume, cap) -> fingerprint, subsample; find's cap is max_int *)
    mfp_memo : (unit, int * mfp_level list) Hashtbl.t;  (* the one index: fingerprint, levels *)
    obs_hits : Bgl_obs.Registry.counter;
    obs_misses : Bgl_obs.Registry.counter;
    obs_counted : Bgl_obs.Registry.counter;
    obs_counted_skips : Bgl_obs.Registry.counter;
  }

  let create grid =
    let open Bgl_obs.Registry in
    let reg = Bgl_obs.Runtime.registry () in
    let rows = lazy (make_rows grid) in
    {
      grid;
      rows;
      scratch =
        lazy
          (let r = Lazy.force rows in
           {
             s_rows = r;
             s_free = Array.make (Array.length r.free) 0;
             s_count = 0;
             s_dims = Grid.dims grid;
             s_shapes = Hashtbl.create 8;
           });
      select_memo = Hashtbl.create 32;
      mfp_memo = Hashtbl.create 1;
      obs_hits = counter reg ~help:"finder candidate-cache hits" "bgl_finder_cache_hits_total";
      obs_misses =
        counter reg ~help:"finder candidate-cache misses" "bgl_finder_cache_misses_total";
      obs_counted =
        counter reg ~help:"counted (count-then-select) finder queries"
          "bgl_finder_counted_queries_total";
      obs_counted_skips =
        counter reg ~help:"shapes the summary let counted queries skip"
          "bgl_finder_counted_skips_total";
    }

  let grid t = t.grid

  (* The masks follow the grid's version, not notes. *)
  let note_box _ _ = ()

  let rows t =
    let r = Lazy.force t.rows in
    refresh r t.grid;
    r

  let table t = (rows t).free

  (* Serve [key] from [memo] while the occupancy fingerprint matches,
     else run [compute] and remember its result. *)
  let memoised t memo key ~compute =
    let fp = Grid.fingerprint t.grid in
    match Hashtbl.find_opt memo key with
    | Some (fp', r) when fp' = fp ->
        Bgl_obs.Registry.inc t.obs_hits;
        r
    | _ ->
        Bgl_obs.Registry.inc t.obs_misses;
        let r = compute () in
        Hashtbl.replace memo key (fp, r);
        r

  (* The counted query: count, pick the historical even-subsample
     ranks, and emit only those boxes. *)
  let select t ~volume ~cap =
    if volume <= 0 then invalid_arg "Finder.Cache.select: volume must be positive";
    if cap < 1 then invalid_arg "Finder.Cache.select: cap must be >= 1";
    Bgl_resilience.Budget.check ~site:"finder.cache.select";
    let result =
      if volume > Grid.volume t.grid then []
      else
        memoised t t.select_memo (volume, cap) ~compute:(fun () ->
            let plan, boxes = select_scan (rows t) t.grid ~volume ~cap in
            Bgl_obs.Registry.inc t.obs_counted;
            if plan.p_skips > 0 then
              Bgl_obs.Registry.add t.obs_counted_skips (float_of_int plan.p_skips);
            boxes)
    in
    if differential_armed () then
      differential_check ~site:"cache.select" t.grid ~volume ~project:(reference_cap ~cap) result;
    result

  let find t ~volume = select t ~volume ~cap:max_int

  (* The MFP level index. One index serves every MFP query on one
     occupancy: a what-if probe reads the same levels with a
     disjointness filter instead of mutating the grid, so a placement
     pass scans each level at most once. A level's boxes are packed
     four ints apiece, which keeps a large level's footprint flat. *)
  let mfp_levels t =
    memoised t t.mfp_memo () ~compute:(fun () ->
        List.map
          (fun (volume, shapes) ->
            { volume; shapes; boxes = lazy (level_scan (rows t) t.grid shapes) })
          (Shapes.levels_desc (Grid.dims t.grid)))

  (* What-if queries: [what_if] copies the refreshed masks into the
     scratch, [release] and [claim] edit the copy a box at a time, and
     [first_free] scans it with no Summary gate. *)
  let what_if t =
    let r = rows t and s = Lazy.force t.scratch in
    Array.blit r.free 0 s.s_free 0 (Array.length r.free);
    s.s_count <- Grid.free_count t.grid;
    s

  let free_nodes s = s.s_count
  let release s box = s.s_count <- s.s_count + set_box s.s_rows s.s_free box ~on:true
  let claim s box = s.s_count <- s.s_count - set_box s.s_rows s.s_free box ~on:false

  let first_free s ~volume =
    if volume <= 0 then invalid_arg "Finder.Cache.first_free: volume must be positive";
    Bgl_resilience.Budget.check ~site:"finder.cache.first_free";
    let d = s.s_dims in
    let shapes =
      match Hashtbl.find_opt s.s_shapes volume with
      | Some shapes -> shapes
      | None ->
          let shapes =
            Array.of_list
              (List.map (counted d ~wrap:s.s_rows.wrap) (Shapes.shapes_of_volume d volume))
          in
          Hashtbl.replace s.s_shapes volume shapes;
          shapes
    in
    let result =
      first_free_scan s.s_rows s.s_free shapes
      |> Option.map (fun (row, x, i) ->
             Box.make (Coord.make x (row mod d.ny) (row / d.ny)) shapes.(i).cs)
    in
    guard_first_free s.s_rows s.s_free ~dims:d ~volume result;
    result
end
