"""Expected query results, derived without the program under test.

Each generated document is parsed with the standard library's
``xml.etree.ElementTree``; every edit the benchmark commits is applied to
that model too, and each query's expected result is computed from the
model in plain Python (Q8 and Q9 as hash joins).  Results are compared
as canonical trees, so the comparison does not depend on how the
program spells empty elements or escapes characters.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter, defaultdict

Canon = tuple


def canonical_xml(text: str) -> Canon:
    """The canonical form of a serialized result forest."""
    return _canon_children(ET.fromstring("<r>" + text + "</r>"))


def canonical_elements(elements: list[ET.Element]) -> Canon:
    """The canonical form of an expected result forest."""
    root = ET.Element("r")
    root.extend(elements)
    return _canon_children(root)


def _canon_children(root: ET.Element) -> Canon:
    return (root.text or "", tuple(_canon(child) for child in root))


def _canon(element: ET.Element) -> Canon:
    return (element.tag, tuple(sorted(element.attrib.items())),
            element.text or "", tuple(_canon(child) for child in element),
            element.tail or "")


def _text(element: ET.Element | None) -> str:
    """``$e/text()`` rendered as a string: the element's own text nodes."""
    if element is None:
        return ""
    parts = [element.text or ""]
    parts.extend(child.tail or "" for child in element)
    return "".join(parts)


def _make(tag: str, attrib: dict[str, str] | None = None,
          text: str = "", children: list[ET.Element] | None = None
          ) -> ET.Element:
    element = ET.Element(tag, attrib or {})
    element.text = text or None
    if children:
        element.extend(children)
    return element


class XMarkModel:
    """An ElementTree copy of one XMark document, kept in step with edits."""

    def __init__(self, xml_text: str):
        self.root = ET.fromstring(xml_text)
        self.people = self.root.find("people")
        self._index_people()

    def _index_people(self) -> None:
        self._position = {person.get("id"): index
                          for index, person in enumerate(self.people)}

    @property
    def person_ids(self) -> list[str]:
        return [person.get("id") for person in self.people]

    def person_position(self, person_id: str) -> int:
        """Child index of a person under ``<people>``."""
        return self._position[person_id]

    def replace_person(self, person_id: str, replacement: ET.Element) -> None:
        """Mirror of a committed replace: same position, new content."""
        position = self._position[person_id]
        self.people.remove(self.people[position])
        self.people.insert(position, replacement)

    # -- expected results ------------------------------------------------------

    def _persons(self) -> list[ET.Element]:
        return list(self.people)

    def _closed(self) -> list[ET.Element]:
        return self.root.findall("closed_auctions/closed_auction")

    def expected(self, name: str, argument: str | None = None) -> Canon:
        """Expected canonical result of query ``name`` on this model."""
        return canonical_elements(getattr(self, "_" + name.lower())(argument))

    def _q8(self, _argument) -> list[ET.Element]:
        bought = Counter(auction.find("buyer").get("person")
                         for auction in self._closed())
        return [_make("item", {"person": _text(person.find("name"))},
                      str(bought[person.get("id")]))
                for person in self._persons() if bought[person.get("id")]]

    def _q9(self, _argument) -> list[ET.Element]:
        europe = defaultdict(list)
        for item in self.root.findall("regions/europe/item"):
            europe[item.get("id")].append(item)
        by_buyer = defaultdict(list)
        for auction in self._closed():
            by_buyer[auction.find("buyer").get("person")].append(auction)
        result = []
        for person in self._persons():
            auctions = by_buyer.get(person.get("id"))
            if not auctions:
                continue
            items = [_make("item", text="".join(
                _text(item.find("name"))
                for item in europe.get(auction.find("itemref").get("item"),
                                       ())))
                for auction in auctions]
            result.append(_make("person", {"name": _text(person.find("name"))},
                                children=items))
        return result

    def _q13(self, _argument) -> list[ET.Element]:
        return [_make("item", {"name": _text(item.find("name"))},
                      children=item.findall("description"))
                for item in self.root.findall("regions/australia/item")]

    def _q1(self, _argument) -> list[ET.Element]:
        return [initial
                for auction in self.root.findall("open_auctions/open_auction")
                if auction.find("seller").get("person") == "person1"
                for initial in auction.findall("initial")]

    def _q6(self, _argument) -> list[ET.Element]:
        return [_make("region", {"count": str(len(region.findall(".//item")))})
                for region in self.root.find("regions")]

    def _q15(self, _argument) -> list[ET.Element]:
        return [_make("text", text="".join(
            _text(node)
            for node in auction.findall("annotation/description/text")))
            for auction in self._closed()]

    def _q17(self, _argument) -> list[ET.Element]:
        return [_make("personne", {"name": _text(person.find("name"))})
                for person in self._persons()
                if not any(_text(page) for page in person.findall("homepage"))]

    def _q19(self, _argument) -> list[ET.Element]:
        items = self.root.findall("regions/australia/item")
        keyed = sorted(((_text(item.find("location")), item) for item in items),
                       key=lambda pair: pair[0])
        return [_make("item", {"name": _text(item.find("name"))}, location)
                for location, item in keyed]

    def _lookup(self, person_id: str) -> list[ET.Element]:
        position = self._position.get(person_id)
        if position is None:
            return []
        return self.people[position].findall("name")
