"""Walk through feature extraction on a pair of hand-written pages.

Run with: python3 demos/explore_features.py
"""

from safeindex import default_lexicon_set, extract_features, page_from_html

lexicons = default_lexicon_set()

# Grab a few real terms from the bundled synthetic lexicons so the adult
# page actually lights up the corresponding attributes.
tags = sorted(lexicons.content["tags-en"])[:6]
categories = sorted(lexicons.content["categories-en"])[:4]
url_term = sorted(lexicons.url_terms)[0]

adult_html = "<p>{}</p>{}".format(
    " ".join(tags + categories + ["and", "some", "filler", "words"]),
    "".join('<img src="thumb{}.jpg">'.format(i) for i in range(12)),
)
safe_html = """
<html><head><title>Garden notes</title></head>
<body><p>Planting advice for a small vegetable garden, month by month.</p>
<img src="tomatoes.jpg"></body></html>
"""

adult_page = page_from_html(f"http://www.videos-{url_term}.com/clips", adult_html)
safe_page = page_from_html("http://www.allotment-diary.co.uk/march", safe_html)

for name, page in [("adult-looking", adult_page), ("safe-looking", safe_page)]:
    fv = extract_features(page, lexicons)
    print(f"--- {name} page: {page.url.full_url}")
    print(f"    registrable domain: {page.url.registrable_domain}")
    print(f"    tokens: {len(page.tokens)}, images: {page.image_count}")
    for attr, value in fv.as_dict().items():
        if value:
            print(f"    {attr:22s} = {value:.4f}")
    print()
