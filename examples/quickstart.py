"""Quickstart: index a small linked collection and run descendant queries.

Run with::

    python examples/quickstart.py
"""

from repro import Flix, FlixConfig, QueryRequest, XmlDocument, build_collection


def main() -> None:
    # Three documents: a tiny "site" whose pages link to each other via
    # XLink hrefs, plus one intra-document idref link.
    documents = [
        XmlDocument.from_text(
            "index.xml",
            """
            <site>
              <title>Example site</title>
              <toc>
                <entry xlink:href="articles.xml"/>
                <entry xlink:href="about.xml"/>
              </toc>
            </site>
            """,
        ),
        XmlDocument.from_text(
            "articles.xml",
            """
            <articles>
              <article id="a1">
                <title>On linked XML</title>
                <related idref="a2"/>
              </article>
              <article id="a2">
                <title>On path indexes</title>
                <see xlink:href="about.xml#team"/>
              </article>
            </articles>
            """,
        ),
        XmlDocument.from_text(
            "about.xml",
            """
            <about>
              <team id="team"><member>R. S.</member></team>
            </about>
            """,
        ),
    ]

    # 1. Assemble the element-level union graph (section 2.1 of the paper).
    collection = build_collection(documents)
    print(f"collection: {collection}")

    # 2. Build the FliX index.  Passing no config lets FliX recommend one
    #    from the collection's statistics; here we pick Naive explicitly.
    flix = Flix.build(collection, FlixConfig.naive())
    print(flix.describe())
    print()

    # 3. a//b: all title elements reachable from the site root, streamed in
    #    (approximately) ascending distance.
    start = collection.document_root("index.xml")
    print("titles reachable from the site root:")
    for result in flix.query_stream(QueryRequest.descendants(start, tag="title")):
        text = collection.text(result.node)
        print(f"  distance {result.distance}: {text!r}")
    print()

    # 4. Connection test: is the site root connected to the team element?
    (team,) = collection.nodes_with_tag("team")
    distance = flix.query(QueryRequest.test(start, team)).value
    print(f"site root -> team: connected at distance {distance}")

    # 5. Ancestors: which elements can reach the team?
    print("elements that reach the team element:")
    for result in flix.query_stream(QueryRequest.ancestors(team, tag="article")):
        print(f"  article at distance {result.distance}")


if __name__ == "__main__":
    main()
