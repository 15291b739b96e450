type t = { base : Coord.t; shape : Shape.t }

let make base shape = { base; shape }
let volume t = Shape.volume t.shape

let cells (d : Dims.t) t =
  assert (Coord.in_bounds d t.base);
  assert (Shape.fits d t.shape);
  let acc = ref [] in
  for dz = t.shape.sz - 1 downto 0 do
    for dy = t.shape.sy - 1 downto 0 do
      for dx = t.shape.sx - 1 downto 0 do
        let c = Coord.make (t.base.x + dx) (t.base.y + dy) (t.base.z + dz) in
        acc := Coord.wrap d c :: !acc
      done
    done
  done;
  !acc

let indices d t = List.map (Coord.index d) (cells d t)

let canonical (d : Dims.t) ~wrap t =
  if not wrap then t
  else
    let base =
      Coord.make
        (if t.shape.sx = d.nx then 0 else t.base.x)
        (if t.shape.sy = d.ny then 0 else t.base.y)
        (if t.shape.sz = d.nz then 0 else t.base.z)
    in
    { t with base }

let pos_mod a n = ((a mod n) + n) mod n

(* One-dimensional interval overlap on a ring of size n: the intervals
   [b, b+s) taken modulo n. Two arcs shorter than the ring meet exactly
   when one starts inside the other, so two offsets decide it. *)
let ring_overlap n b1 s1 b2 s2 =
  s1 >= n || s2 >= n || pos_mod (b2 - b1) n < s1 || pos_mod (b1 - b2) n < s2

let overlap (d : Dims.t) a b =
  ring_overlap d.nx a.base.x a.shape.sx b.base.x b.shape.sx
  && ring_overlap d.ny a.base.y a.shape.sy b.base.y b.shape.sy
  && ring_overlap d.nz a.base.z a.shape.sz b.base.z b.shape.sz

let ring_member n b s v = pos_mod (v - b) n < s

let member (d : Dims.t) t (c : Coord.t) =
  ring_member d.nx t.base.x t.shape.sx c.x
  && ring_member d.ny t.base.y t.shape.sy c.y
  && ring_member d.nz t.base.z t.shape.sz c.z

let equal a b = Coord.equal a.base b.base && Shape.equal a.shape b.shape

let compare a b =
  match Coord.compare a.base b.base with 0 -> Shape.compare a.shape b.shape | c -> c

let pp ppf t = Format.fprintf ppf "%a@%a" Shape.pp t.shape Coord.pp t.base
